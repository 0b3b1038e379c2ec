// Run manifest: the provenance block every benchmark JSON (and any other
// recorded artifact) embeds so that two runs can be compared honestly.
//
// A manifest pins down *what* produced the numbers: the producing tool and
// its configuration, the git revision the binary was built from (injected
// at configure time), the host's hardware thread count, and the schema
// versions of the observability documents the build emits.  scripts/
// bench_gate.py refuses to diff two BENCH_*.json files whose manifests
// disagree on schema versions, and reports sha/host mismatches so a
// "regression" measured on different hardware is never mistaken for one.
#pragma once

#include <string>

namespace hjsvd::obs {

/// Schema tag of the offline run report (src/report/ consumes traces and
/// metrics and emits this document; declared here so the manifest's
/// schema_versions block has one source of truth for all three documents).
inline constexpr const char* kReportSchema = "hjsvd.report.v2";

/// Caller-supplied part of a manifest; the serialized form adds the build's
/// git sha, the host thread count, and the schema versions automatically.
struct RunManifest {
  std::string tool;    // producing binary, e.g. "bench_parallel_sweep"
  std::string config;  // one-line flag/config summary of the run
};

/// Git revision of the source tree at the last build ("unknown" outside a
/// git checkout).  Defined in a source the build generates
/// (src/obs/git_sha.cmake), not discovered at run time.
const char* build_git_sha();

/// Hardware threads of this host (std::thread::hardware_concurrency,
/// floored at 1).
int host_hardware_threads();

/// The manifest as a JSON object, e.g.
///   {"tool": "...", "config": "...", "git_sha": "...", "host_threads": 1,
///    "schema_versions": {"trace": "hjsvd.trace.v2",
///                        "metrics": "hjsvd.metrics.v1",
///                        "report": "hjsvd.report.v2"}}
std::string manifest_json(const RunManifest& manifest);

}  // namespace hjsvd::obs
