// Umbrella header: the complete public API of the locald library.
//
// locald reproduces "What can be decided locally without identifiers?"
// (Fraigniaud, Göös, Korman, Suomela; PODC 2013). See README.md for the
// build/test quickstart and subsystem map, and docs/ARCHITECTURE.md for the
// simulation pipeline and the scenario registry.
#pragma once

// Substrates
#include "exec/context.h"
#include "exec/thread_pool.h"
#include "exec/verdict_cache.h"
#include "graph/algorithms.h"
#include "graph/ball_slice.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/isomorphism.h"
#include "graph/pyramid.h"
#include "support/format.h"
#include "support/rng.h"

// The LOCAL model and local decision
#include "local/algorithm.h"
#include "local/ball.h"
#include "local/event_engine.h"
#include "local/identifiers.h"
#include "local/indistinguishability.h"
#include "local/label.h"
#include "local/labeled_graph.h"
#include "local/property.h"
#include "local/simulator.h"

// Example properties (LD* baselines)
#include "props/properties.h"

// Turing machines and execution tables
#include "tm/fragments.h"
#include "tm/machine.h"
#include "tm/rules.h"
#include "tm/run.h"
#include "tm/table.h"
#include "tm/zoo.h"

// Section 2: separation under bounded identifiers
#include "trees/audit.h"
#include "trees/construction.h"
#include "trees/decide.h"
#include "trees/promise_cycle.h"

// Section 3: separation under computability
#include "halting/analysis.h"
#include "halting/gmr.h"
#include "halting/promise_halting.h"
#include "halting/verifier.h"

// The (¬B, ¬C) simulation and the Section-1.1 matrix
#include "core/matrix.h"
#include "oblivious/simulation.h"
