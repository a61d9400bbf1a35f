#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "cli/scenario.h"
#include "obs/process.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "server/api.h"
#include "support/check.h"
#include "support/format.h"
#include "support/schema.h"

namespace locald::server {

namespace {

std::string healthz_document() {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("status");
  w.value("ok");
  w.end_object();
  out << "\n";
  return out.str();
}

std::string metrics_document(const MetricsSnapshot& m) {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("locald-serve");
  w.key("schema_version");
  w.value(kSchemaVersion);
  w.key("requests_total");
  w.value(m.requests_total);
  w.key("connections_total");
  w.value(m.connections_total);
  w.key("rejected_total");
  w.value(m.rejected_total);
  w.key("errors_total");
  w.value(m.errors_total);
  w.key("in_flight");
  w.value(m.in_flight);
  w.key("queue_depth");
  w.value(m.queue_depth);
  w.key("workers");
  w.value(m.workers);
  w.key("max_queue");
  w.value(m.max_queue);
  w.key("pool_parallelism");
  w.value(m.pool_parallelism);
  w.key("cache");
  w.begin_object();
  w.key("hits");
  w.value(m.cache.hits);
  w.key("store_hits");
  w.value(m.cache.store_hits);
  w.key("misses");
  w.value(m.cache.misses);
  w.key("entries");
  w.value(m.cache.entries);
  w.key("hit_rate");
  w.value(m.cache.hit_rate(), 4);
  w.key("resets");
  w.value(m.cache_resets);
  w.end_object();
  if (m.store_attached) {
    w.key("store");
    w.begin_object();
    w.key("path");
    w.value(m.store_path);
    w.key("role");
    w.value(m.store_follower ? "follower" : "writer");
    w.key("tail_refreshes");
    w.value(m.store.tail_refreshes);
    w.key("tail_records");
    w.value(m.store.tail_records);
    w.key("records_loaded");
    w.value(m.store.records_loaded);
    w.key("quarantined");
    w.value(m.store.quarantined);
    w.key("dropped_bytes");
    w.value(m.store.dropped_bytes);
    w.key("truncations");
    w.value(m.store.truncations);
    w.key("appended");
    w.value(m.store.appended);
    w.key("appended_bytes");
    w.value(m.store.appended_bytes);
    w.key("fsyncs");
    w.value(m.store.fsyncs);
    w.end_object();
  }
  w.key("canon");
  w.begin_object();
  w.key("forms");
  w.value(m.canon.forms);
  w.key("census_balls");
  w.value(m.canon.census_balls);
  w.key("census_raw_hits");
  w.value(m.canon.census_raw_hits);
  w.end_object();
  w.key("events");
  w.begin_object();
  w.key("dispatched");
  w.value(m.events.events_dispatched);
  w.key("messages_dropped");
  w.value(m.events.messages_dropped);
  w.key("messages_fragmented");
  w.value(m.events.messages_fragmented);
  w.key("messages_delayed");
  w.value(m.events.messages_delayed);
  w.key("max_queue_depth");
  w.value(m.events.max_queue_depth);
  w.end_object();
  w.key("process");
  w.begin_object();
  w.key("uptime_seconds");
  w.value(m.uptime_seconds, 3);
  w.key("peak_rss_kb");
  w.value(m.peak_rss_kb);
  w.key("open_connections");
  w.value(m.in_flight);
  w.key("queue_depth");
  w.value(m.queue_depth);
  w.end_object();
  w.end_object();
  out << "\n";
  return out.str();
}

HttpResponse error_response(int status, const std::string& message) {
  HttpResponse r;
  r.status = status;
  r.body = error_document(status, message);
  return r;
}

HttpResponse method_not_allowed(const std::string& allow) {
  HttpResponse r = error_response(405, cat("method not allowed; use ", allow));
  r.extra_headers.emplace_back("Allow", allow);
  return r;
}

void set_recv_timeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

Server::Server(ServeOptions options) : options_(std::move(options)) {
  LOCALD_CHECK(options_.port >= 0 && options_.port <= 65535,
               "port must be in [0, 65535]");
  LOCALD_CHECK(options_.threads >= 0, "threads must be non-negative");
  LOCALD_CHECK(options_.workers >= 1, "at least one request worker");
  LOCALD_CHECK(options_.max_queue >= 1, "queue bound must be at least 1");

  obs::Registry& reg = obs::registry();
  requests_total_ = reg.counter("locald_http_requests_total",
                                "HTTP responses written by request workers");
  connections_total_ = reg.counter("locald_http_connections_total",
                                   "Connections served by request workers");
  rejected_total_ = reg.counter("locald_http_rejected_total",
                                "Connections shed with 503 by the acceptor");
  errors_total_ = reg.counter("locald_http_errors_total",
                              "Responses with status >= 400");
  cache_resets_ = reg.counter(
      "locald_cache_resets_total",
      "Shared verdict-cache memory-tier resets (entry budget exceeded)");
  response_bytes_ = reg.counter("locald_http_response_bytes_total",
                                "Response body bytes written to clients");
  in_flight_ = reg.gauge("locald_http_open_connections",
                         "Connections currently inside a request worker");
  request_seconds_ = reg.histogram(
      "locald_http_request_seconds", "End-to-end request service latency",
      obs::Histogram::default_latency_buckets_seconds());
  metric_handles_.push_back(reg.gauge_fn(
      "locald_http_queue_depth", "Accepted connections awaiting a worker",
      [this] {
        std::lock_guard<std::mutex> lk(queue_mu_);
        return static_cast<double>(queue_.size());
      }));
  metric_handles_.push_back(reg.gauge_fn(
      "locald_process_uptime_seconds", "Seconds since process start",
      [] { return obs::uptime_seconds(); }));
  metric_handles_.push_back(
      reg.gauge_fn("locald_process_peak_rss_kb",
                   "Peak resident set size in KiB (getrusage)",
                   [] { return static_cast<double>(obs::peak_rss_kb()); }));
  for (auto& handle : cache_.register_metrics()) {
    metric_handles_.push_back(std::move(handle));
  }
  // Force the process-wide canonicalization and event-engine counters into
  // the registry so a scrape before any work already exposes them (at zero).
  (void)graph::canonicalization_counters();
  (void)local::event_engine_counters();
}

Server::~Server() { stop(); }

void Server::start() {
  LOCALD_CHECK(listen_fd_ < 0, "server already started");
  if (options_.threads != 1) {
    pool_.emplace(options_.threads);
  }
  if (!options_.store_path.empty()) {
    // Opened (and recovered) before the socket exists: a server that
    // advertises --store either starts warm or fails loudly, never serves
    // cold by accident. In follower mode this is also where a second
    // writer is rejected — the lease check happens before any socket binds.
    store_.emplace(options_.store_path, options_.store_shards,
                   options_.store_follower
                       ? exec::VerdictStore::Role::follower
                       : exec::VerdictStore::Role::writer);
    cache_.attach_store(&*store_);
    for (auto& handle : store_->register_metrics()) {
      metric_handles_.push_back(std::move(handle));
    }
  }
  if (!options_.access_log_path.empty()) {
    access_log_.emplace(options_.access_log_path);
  }
  if (!options_.trace_out.empty()) {
    obs::tracing_start();
  }

  // SOCK_CLOEXEC keeps the listen socket out of any forked/exec'd child
  // (same audit as the store's shard fds — a child inheriting the socket
  // would keep the port bound after this process dies).
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  LOCALD_CHECK(listen_fd_ >= 0, cat("socket(): ", std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  LOCALD_CHECK(
      ::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) == 1,
      cat("not an IPv4 bind address: ", options_.host));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(cat("cannot bind ", options_.host, ":", options_.port, ": ",
                    why));
  }
  LOCALD_CHECK(::listen(listen_fd_, 128) == 0,
               cat("listen(): ", std::strerror(errno)));

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  LOCALD_CHECK(::getsockname(listen_fd_,
                             reinterpret_cast<sockaddr*>(&bound), &len) == 0,
               cat("getsockname(): ", std::strerror(errno)));
  bound_port_ = static_cast<int>(ntohs(bound.sin_port));

  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  if (listen_fd_ >= 0) {
    // Unblocks the acceptor's accept(); it observes stopping_ and exits.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  {
    // Unblock workers parked in recv() waiting for a keep-alive client's
    // next request: shutdown makes the recv return 0 (idle close) so the
    // connection loop exits without waiting out the idle timeout.
    std::lock_guard<std::mutex> lk(queue_mu_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Whatever was still queued never reached a worker; close, don't answer.
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    for (int fd : queue_) ::close(fd);
    queue_.clear();
  }
  if (!options_.trace_out.empty()) {
    // Best-effort: trace output is a volatile side channel, and stop() must
    // never fail because a disk filled up.
    std::string ignored;
    obs::tracing_stop_to_file(options_.trace_out, &ignored);
  }
}

void Server::accept_loop() {
  // Built once: shedding load must not allocate per rejected connection.
  const std::string busy = serialize_http_response([] {
    HttpResponse r = error_response(503, "server at capacity; retry shortly");
    r.extra_headers.emplace_back("Retry-After", "1");
    return r;
  }());
  while (true) {
    // accept4 over accept for SOCK_CLOEXEC: connection fds must not leak
    // into forked/exec'd children either.
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      if (stopping_) {
        if (fd >= 0) ::close(fd);
        return;
      }
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Transient resource pressure (typically fd exhaustion while the
        // workers hold connections): back off briefly and keep accepting
        // rather than silently becoming a server that never answers again.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      return;  // listen socket is gone; stop() is the only way this happens
    }
    timeval tv{};
    tv.tv_sec = options_.read_timeout_ms / 1000;
    tv.tv_usec = (options_.read_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // Same deadline on writes: a client that never drains its response
    // must time out instead of pinning a worker in send() forever (which
    // would also wedge stop()'s join).
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    bool shed = false;
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      if (queue_.size() >= static_cast<std::size_t>(options_.max_queue)) {
        shed = true;
      } else {
        queue_.push_back(fd);
      }
    }
    if (shed) {
      rejected_total_->add(1);
      send_all(fd, busy);
      ::close(fd);
    } else {
      queue_cv_.notify_one();
    }
  }
}

void Server::worker_loop(int worker) {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      fd = queue_.front();
      queue_.pop_front();
    }
    serve_connection(fd, worker);
    ::close(fd);
  }
}

void Server::serve_connection(int fd, int worker) {
  in_flight_->add(1);
  connections_total_->add(1);
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    active_fds_.insert(fd);
  }

  // Two recv deadlines per request: the idle timeout while waiting for its
  // first byte (a keep-alive client may legitimately sit quiet between
  // requests), the read timeout once the request has started arriving (a
  // started-then-stalled request is a misbehaving client, not an idle one).
  bool request_started = false;
  const ByteSource source = [&](char* buf, std::size_t len) -> long {
    while (true) {
      const ssize_t n = ::recv(fd, buf, len, 0);
      if (n > 0 && !request_started) {
        request_started = true;
        set_recv_timeout(fd, options_.read_timeout_ms);
      }
      if (n >= 0) return static_cast<long>(n);
      if (errno == EINTR) continue;
      return -1;  // timeout (EAGAIN under SO_RCVTIMEO) or hard error
    }
  };

  std::string leftover;  // pipelined bytes carried between requests
  int handled = 0;
  while (true) {
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      if (stopping_) break;
    }
    request_started = false;
    set_recv_timeout(fd, handled == 0 ? options_.read_timeout_ms
                                      : options_.idle_timeout_ms);
    const ParseResult parsed =
        read_http_request(source, options_.limits, &leftover);
    if (parsed.idle_close) break;  // client hung up between requests
    // Counted before routing so a /v1/metrics response includes itself.
    requests_total_->add(1);
    ++handled;

    // Request-scoped observability: service latency on the monotonic
    // stopwatch, verdict-cache activity deltas for the access log, and one
    // span per request when tracing is on. All volatile side channels.
    const obs::Stopwatch stopwatch;
    const auto cache_hits_now = [this] {
      const exec::VerdictCache::Stats s = cache_.stats();
      return s.hits + s.store_hits;
    };
    const std::uint64_t hits_before =
        access_log_.has_value() ? cache_hits_now() : 0;
    const auto finish_request = [&](const std::string& method,
                                    const std::string& path, int status,
                                    std::uint64_t bytes) {
      const double seconds = stopwatch.elapsed_seconds();
      request_seconds_->observe(seconds);
      response_bytes_->add(bytes);
      if (access_log_.has_value()) {
        obs::AccessEntry entry;
        entry.method = method;
        entry.path = path;
        entry.status = status;
        entry.response_bytes = bytes;
        entry.duration_ms = seconds * 1e3;
        entry.worker = worker;
        entry.cache_hits = cache_hits_now() - hits_before;
        access_log_->write(entry);
      }
    };

    if (parsed.status != 200) {
      // After a framing error the byte stream is unreliable; answer and
      // close regardless of what the client asked for.
      errors_total_->add(1);
      const HttpResponse bad = error_response(parsed.status, parsed.error);
      send_all(fd, serialize_http_response(bad, false));
      finish_request(parsed.request.method, "", bad.status,
                     bad.body.size());
      break;
    }

    obs::Span request_span("http-request", cat(parsed.request.method, " ",
                                               parsed.request.path()));
    const bool keep_alive = request_keep_alive(parsed.request) &&
                            handled < options_.max_requests_per_connection;

    if (parsed.request.method == "POST" &&
        parsed.request.path() == "/v1/sweep" &&
        parsed.request.version == "HTTP/1.1") {
      // Streamed: cells leave as chunks while later cells still compute.
      // (HTTP/1.0 clients cannot parse chunked framing and fall through to
      // the buffered path below.)
      bool io_failed = false;
      std::uint64_t bytes_sent = 0;
      const std::optional<HttpResponse> early =
          stream_sweep(fd, parsed.request, keep_alive, &io_failed,
                       &bytes_sent);
      if (!early.has_value()) {
        maybe_reset_cache();
        finish_request(parsed.request.method, parsed.request.path(), 200,
                       bytes_sent);
        if (io_failed || !keep_alive) break;
        continue;
      }
      errors_total_->add(1);
      const bool sent =
          send_all(fd, serialize_http_response(*early, keep_alive));
      finish_request(parsed.request.method, parsed.request.path(),
                     early->status, early->body.size());
      if (!sent || !keep_alive) break;
      continue;
    }

    const HttpResponse response = handle(parsed.request);
    if (response.status >= 400) {
      errors_total_->add(1);
    }
    const bool sent =
        send_all(fd, serialize_http_response(response, keep_alive));
    maybe_reset_cache();
    finish_request(parsed.request.method, parsed.request.path(),
                   response.status, response.body.size());
    if (!sent || !keep_alive) break;
  }

  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    active_fds_.erase(fd);
  }
  in_flight_->add(-1);
}

std::optional<HttpResponse> Server::stream_sweep(int fd,
                                                 const HttpRequest& request,
                                                 bool keep_alive,
                                                 bool* io_failed,
                                                 std::uint64_t* bytes_sent) {
  *io_failed = false;
  *bytes_sent = 0;
  // Everything that can fail is checked before the 200 head is committed
  // to the wire; past this point errors can only abort the connection.
  SweepRequest sweep;
  try {
    sweep = parse_sweep_request(request.body);
    cli::check_request(sweep.scenario, sweep.family, sweep.fault_profile,
                       sweep.sizes);
  } catch (const cli::UnknownScenario& e) {
    return error_response(404, e.what());
  } catch (const Error& e) {
    return error_response(400, e.what());
  }

  if (!send_all(fd, serialize_http_response_head(HttpResponse{}, keep_alive))) {
    *io_failed = true;
    return std::nullopt;
  }
  struct ClientGone {};
  try {
    sweep_document_stream(
        sweep, pool_ ? &*pool_ : nullptr,
        [&](const std::string& piece) {
          if (!send_all(fd, encode_chunk(piece))) throw ClientGone{};
          *bytes_sent += piece.size();
        },
        nullptr);
  } catch (const ClientGone&) {
    // Mid-stream disconnect: stop computing cells nobody will read. The
    // connection is unusable (the response is incomplete) so it closes,
    // releasing this worker back to the queue.
    *io_failed = true;
    return std::nullopt;
  } catch (const std::exception&) {
    // The head already promised a 200; a failure now cannot be reported
    // in-band. Closing without the terminating chunk tells the client the
    // body is truncated (chunked framing makes truncation detectable).
    *io_failed = true;
    return std::nullopt;
  }
  if (!send_all(fd, last_chunk())) *io_failed = true;
  return std::nullopt;
}

bool Server::send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // client went away; nothing useful to do
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void Server::maybe_reset_cache() {
  if (cache_.stats().entries > options_.cache_reset_entries) {
    cache_.clear();
    cache_resets_->add(1);
  }
}

MetricsSnapshot Server::metrics() const {
  MetricsSnapshot m;
  m.requests_total = requests_total_->value();
  m.connections_total = connections_total_->value();
  m.rejected_total = rejected_total_->value();
  m.errors_total = errors_total_->value();
  m.cache_resets = cache_resets_->value();
  m.in_flight = static_cast<std::uint64_t>(in_flight_->value());
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    m.queue_depth = queue_.size();
  }
  m.workers = options_.workers;
  m.max_queue = options_.max_queue;
  m.pool_parallelism = pool_ ? pool_->parallelism() : 1;
  m.uptime_seconds = obs::uptime_seconds();
  m.peak_rss_kb = obs::peak_rss_kb();
  m.cache = cache_.stats();
  if (store_.has_value()) {
    m.store_attached = true;
    m.store_follower = !store_->writable();
    m.store_path = store_->path();
    m.store = store_->stats();
  }
  m.canon = graph::canonicalization_counters();
  m.events = local::event_engine_counters();
  return m;
}

HttpResponse Server::handle(const HttpRequest& request) {
  const std::string path = request.path();
  HttpResponse response;
  try {
    if (path == "/v1/healthz") {
      if (request.method != "GET") return method_not_allowed("GET");
      response.body = healthz_document();
    } else if (path == "/v1/version") {
      if (request.method != "GET") return method_not_allowed("GET");
      response.body = version_document();
    } else if (path == "/v1/scenarios") {
      if (request.method != "GET") return method_not_allowed("GET");
      response.body = scenarios_document();
    } else if (path == "/v1/families") {
      if (request.method != "GET") return method_not_allowed("GET");
      response.body = families_document();
    } else if (path == "/v1/faults") {
      if (request.method != "GET") return method_not_allowed("GET");
      response.body = faults_document();
    } else if (path == "/v1/metrics") {
      if (request.method != "GET") return method_not_allowed("GET");
      response.body = metrics_document(metrics());
    } else if (path == "/metrics") {
      // Prometheus text exposition (0.0.4) from the same registry the JSON
      // surface reads — standard scrapers point here unmodified.
      if (request.method != "GET") return method_not_allowed("GET");
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = obs::registry().render_prometheus();
    } else if (path == "/v1/run") {
      if (request.method != "POST") return method_not_allowed("POST");
      const RunRequest run = parse_run_request(request.body);
      exec::ExecContext ctx;
      ctx.pool = pool_ ? &*pool_ : nullptr;
      ctx.cache = &cache_;
      response.body = run_document(run, ctx, nullptr);
    } else if (path == "/v1/sweep") {
      if (request.method != "POST") return method_not_allowed("POST");
      const SweepRequest sweep = parse_sweep_request(request.body);
      response.body = sweep_document(sweep, pool_ ? &*pool_ : nullptr,
                                     nullptr);
    } else {
      return error_response(
          404, cat("no such endpoint ", json_quote(path),
                   "; endpoints: /v1/healthz /v1/version /v1/scenarios "
                   "/v1/families /v1/faults /v1/metrics /metrics /v1/run "
                   "/v1/sweep"));
    }
  } catch (const cli::UnknownScenario& e) {
    return error_response(404, e.what());
  } catch (const Error& e) {
    // Caller-facing precondition (bad JSON, bad field, bad selector): the
    // request's fault.
    return error_response(400, e.what());
  } catch (const std::exception& e) {
    return error_response(500, e.what());
  }
  return response;
}

}  // namespace locald::server
