// Trace (de)serialization.
//
// Traces persist as a simple CSV so users can bring their own measurement
// data (the role the proprietary enterprise trace plays in the paper) or
// archive generated workloads for exactly-reproducible experiments.
//
// Format: one header line, then one line per flow:
//   src_host,dst_host,start_ns,packets,avg_packet_bytes
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "workload/trace.h"

namespace lazyctrl::workload {

/// Writes `trace` as CSV. Returns false on I/O failure.
bool save_trace_csv(const Trace& trace, std::ostream& out);
bool save_trace_csv(const Trace& trace, const std::string& path);

/// Parses a CSV trace. Returns std::nullopt on malformed input; every
/// diagnostic is reported through the optional `error` out-param as
/// "line N: <field> ..." in the `.scn` parser's style (malformed,
/// negative or zero fields name the offending field and value). Flows
/// are re-finalized (sorted by start, so a flow's id is its position).
///
/// Horizon: when `min_horizon` > 0 it is the DECLARED horizon — the
/// loaded trace gets exactly that horizon, and a flow whose start_ns
/// lies at or beyond it is a line-numbered error (it can no longer
/// silently stretch the horizon through the re-finalize path). With the
/// default 0, the horizon is derived from the data as max(start) + 1s.
std::optional<Trace> load_trace_csv(std::istream& in,
                                    SimDuration min_horizon = 0,
                                    std::string* error = nullptr);
std::optional<Trace> load_trace_csv(const std::string& path,
                                    SimDuration min_horizon = 0,
                                    std::string* error = nullptr);

}  // namespace lazyctrl::workload
