#include "fftgrad/util/cpu.h"

namespace fftgrad::util {

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

Isa native_isa() { return cpu_has_avx2() ? Isa::kAvx2 : Isa::kBaseline; }

}  // namespace fftgrad::util
