// Umbrella header for the Dynamic Group Maintenance (DGM) subsystem.
//
// DGM keeps LazyCtrl's switch groups near-optimal while traffic drifts,
// without ever rerunning the full multilevel partitioner on the hot path:
//
//   TrafficMonitor  — decayed inter-switch intensity matrix; every
//                     cross-switch flow counts per switch pair into its
//                     current window (the state advertisements' aggregate)
//   DriftDetector   — inter-group-fraction / size-skew trigger logic
//   IncrementalRegrouper — bounded moves / merges / splits -> MigrationPlan
//   MigrationExecutor    — staged, validated application via GroupingHost
//   Maintainer      — the periodic / drift-triggered control loop
//
// Configured through core::DgmConfig (core/config.h); core::Network wires
// the loop into the simulator as a periodic maintenance event.
#pragma once

#include "dgm/drift_detector.h"
#include "dgm/maintainer.h"
#include "dgm/migration_executor.h"
#include "dgm/regrouper.h"
#include "dgm/traffic_monitor.h"
