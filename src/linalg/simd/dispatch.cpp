// Runtime selection of the SIMD backend and the public kernel entry points.
#include "linalg/simd/simd.hpp"

#include <cstdlib>
#include <string_view>

#include "common/error.hpp"
#include "linalg/simd/backend.hpp"

namespace hjsvd::simd {
namespace {

struct State {
  Level level;
  const detail::Backend* backend;
};

const detail::Backend* backend_for(Level level) {
#if defined(HJSVD_SIMD_AVX2)
  if (level == Level::kAvx2) return &detail::avx2_backend();
#endif
  (void)level;
  return &detail::scalar_backend();
}

Level detect_level() {
  // The env var shares the CMake option's name: HJSVD_SIMD=off|scalar
  // forces the portable backend, =avx2 demands the vector one, =auto (or
  // unset) picks the best available.
  const char* env = std::getenv("HJSVD_SIMD");
  const std::string_view mode = env != nullptr ? env : "auto";
  if (mode == "off" || mode == "scalar") return Level::kScalar;
  if (mode == "avx2") {
    HJSVD_ENSURE(compiled_with_avx2(),
                 "HJSVD_SIMD=avx2 but the AVX2 backend was compiled out "
                 "(build with -DHJSVD_SIMD=ON)");
    HJSVD_ENSURE(cpu_has_avx2(), "HJSVD_SIMD=avx2 but this CPU lacks AVX2");
    return Level::kAvx2;
  }
  HJSVD_ENSURE(mode == "auto",
               "HJSVD_SIMD must be one of off|scalar|avx2|auto");
  return compiled_with_avx2() && cpu_has_avx2() ? Level::kAvx2
                                                : Level::kScalar;
}

State& state() {
  static State st = [] {
    const Level level = detect_level();
    return State{level, backend_for(level)};
  }();
  return st;
}

}  // namespace

const char* level_name(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

bool compiled_with_avx2() {
#if defined(HJSVD_SIMD_AVX2)
  return true;
#else
  return false;
#endif
}

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Level active_level() { return state().level; }

Level set_level(Level level) {
  if (level == Level::kAvx2) {
    HJSVD_ENSURE(compiled_with_avx2(),
                 "set_level(kAvx2): the AVX2 backend was compiled out");
    HJSVD_ENSURE(cpu_has_avx2(), "set_level(kAvx2): this CPU lacks AVX2");
  }
  State& st = state();
  const Level previous = st.level;
  st.level = level;
  st.backend = backend_for(level);
  return previous;
}

void rotate_pair(std::span<double> x, std::span<double> y, double c,
                 double s) {
  HJSVD_ENSURE(x.size() == y.size(), "rotate_pair requires equal lengths");
  state().backend->rotate_pair(x.data(), y.data(), x.size(), c, s);
}

void rotation_hardware_batch(std::size_t count, const double* norm_jj,
                             const double* norm_ii, const double* cov,
                             double* t, double* c, double* s,
                             std::uint8_t* rotate) {
  state().backend->rotation_hardware_batch(count, norm_jj, norm_ii, cov, t,
                                           c, s, rotate);
}

double dot_relaxed(std::span<const double> x, std::span<const double> y) {
  HJSVD_ENSURE(x.size() == y.size(), "dot_relaxed requires equal lengths");
  return state().backend->dot_relaxed(x.data(), y.data(), x.size());
}

double squared_norm_relaxed(std::span<const double> x) {
  return state().backend->squared_norm_relaxed(x.data(), x.size());
}

}  // namespace hjsvd::simd
