// Global exception counter for zero-throw regression tests.
//
// Including this header interposes the two entry points every C++ exception
// goes through, with counting versions that forward to the real ones:
//   * __cxa_throw             -- every `throw` expression;
//   * _Unwind_RaiseException  -- every raise: each throw, and each
//                                std::rethrow_exception (the rethrow in
//                                sim::Task's await_resume).
// A test can then assert that a path raises nothing.  Include it in exactly
// ONE translation unit per test binary (the definitions have external
// linkage).
//
// The interposition relies on dynamic symbol lookup: the test executable's
// definitions win over libstdc++'s and libgcc_s's, and dlsym(RTLD_NEXT)
// finds the real ones (under ASan, ASan's own __cxa_throw interceptor,
// which forwards in turn).  Where that does not hold, e.g. a statically
// linked runtime, throw_hook_active() reports false and the tests skip.
#pragma once

#include <dlfcn.h>
#include <unwind.h>

#include <cstdint>

namespace qrdtm::testing {
namespace detail {
inline std::uint64_t g_throws = 0;
inline std::uint64_t g_raises = 0;
}  // namespace detail

/// `throw` expressions executed since program start.
inline std::uint64_t throw_count() { return detail::g_throws; }

/// _Unwind_RaiseException calls (throws plus rethrows) since program start.
inline std::uint64_t raise_count() { return detail::g_raises; }

/// True when both interposed entry points see a throw made here.
inline bool throw_hook_active() {
  const std::uint64_t throws = detail::g_throws;
  const std::uint64_t raises = detail::g_raises;
  try {
    throw 42;
  } catch (int) {
  }
  return detail::g_throws != throws && detail::g_raises != raises;
}

}  // namespace qrdtm::testing

extern "C" {

// The type_info argument is declared void*, as in the declaration GCC makes
// implicitly for throw expressions (so <cxxabi.h> must not be included).
void __cxa_throw(void* obj, void* type, void (*dtor)(void*)) {
  ++qrdtm::testing::detail::g_throws;
  using Real = void (*)(void*, void*, void (*)(void*));
  static const Real real =
      reinterpret_cast<Real>(dlsym(RTLD_NEXT, "__cxa_throw"));
  real(obj, type, dtor);
  __builtin_unreachable();
}

_Unwind_Reason_Code _Unwind_RaiseException(_Unwind_Exception* exc) {
  ++qrdtm::testing::detail::g_raises;
  using Real = _Unwind_Reason_Code (*)(_Unwind_Exception*);
  static const Real real =
      reinterpret_cast<Real>(dlsym(RTLD_NEXT, "_Unwind_RaiseException"));
  return real(exc);
}

}  // extern "C"
