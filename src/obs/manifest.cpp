#include "obs/manifest.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hjsvd::obs {
namespace {

// Manifests land inside hand-assembled benchmark JSON, so escaping only
// needs to cover what a tool name / flag summary can plausibly contain.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

int host_hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string manifest_json(const RunManifest& manifest) {
  std::ostringstream os;
  os << "{\"tool\": " << quoted(manifest.tool)
     << ", \"config\": " << quoted(manifest.config)
     << ", \"git_sha\": " << quoted(build_git_sha())
     << ", \"host_threads\": " << host_hardware_threads()
     << ", \"schema_versions\": {\"trace\": \"" << kTraceSchema
     << "\", \"metrics\": \"" << kMetricsSchema << "\", \"report\": \""
     << kReportSchema << "\"}}";
  return os.str();
}

}  // namespace hjsvd::obs
