// Per-thread working buffers for hot kernels that run on many threads.
//
// thread_scratch<T, Role>(n) hands the calling thread its buffer for
// `Role` (an empty tag type naming what the buffer holds), at least n
// elements long. The buffer is grown on demand, never shrunk, and its
// contents are left as the previous user left them: a caller writes every
// element it reads. One buffer per (thread, role) instead of one per call
// keeps a warm kernel off the heap; one per thread instead of one per
// object keeps the resident set at one copy per thread, however many
// codec or layer instances that thread drives.
//
// Rules for a caller:
//  - Two buffers that are live at once need two roles.
//  - The span is valid until the same thread asks for the same role again.
//    Code that runs inside the span's lifetime, on the same thread, must
//    not take the same role.
//  - Other threads may read and write the span while the owner waits for
//    them (a parallel_for over its pieces); they do not take the role
//    themselves.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>

namespace fftgrad::util {

template <typename T, typename Role>
std::span<T> thread_scratch(std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);
  thread_local std::unique_ptr<T[]> buffer;
  thread_local std::size_t capacity = 0;
  if (capacity < n) {
    // Free the old buffer before the larger one is taken.
    capacity = 0;
    buffer.reset();
    buffer = std::make_unique_for_overwrite<T[]>(n);
    capacity = n;
  }
  return {buffer.get(), n};
}

}  // namespace fftgrad::util
