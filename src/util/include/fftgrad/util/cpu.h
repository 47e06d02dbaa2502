// What the CPU under the program can run, probed once, and the instruction
// sets a dispatched kernel is built for.
//
// The build targets baseline x86-64 (SSE2). A kernel that gains from wider
// lanes (today gemm's row worker) gets a second entry point compiled for
// AVX2 from the same always-inline body; its public function takes a
// util::Isa, and its plain overload passes native_isa(). Both entry points
// give the same bits: every lane rounds as a scalar float does (no FMA) and
// every sum keeps its order. DESIGN.md's "ISA dispatch" section has the
// rules.
#pragma once

/// Marks a kernel's AVX2 entry point. It names avx2 alone: never fma,
/// arch=haswell or x86-64-v3, whose fused multiply-add rounds once where
/// the baseline rounds twice. Off x86 the entry point compiles for the
/// baseline, and native_isa() never picks it.
#if defined(__x86_64__) || defined(__i386__)
#define FFTGRAD_TARGET_AVX2 [[gnu::target("avx2")]]
#else
#define FFTGRAD_TARGET_AVX2
#endif

namespace fftgrad::util {

/// True when the CPU executes AVX2. Read once from
/// __builtin_cpu_supports("avx2"); false off x86.
bool cpu_has_avx2();

/// The instruction sets a dispatched kernel has an entry point for.
enum class Isa { kBaseline, kAvx2 };

/// The entry point the kernels run by default: kAvx2 when cpu_has_avx2(),
/// else kBaseline.
Isa native_isa();

}  // namespace fftgrad::util
