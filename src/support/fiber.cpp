#include "support/fiber.hpp"

#include <cstdint>

#include "support/contract.hpp"

// The fiber substrate is POSIX ucontext. The tree builds on POSIX hosts
// only (the durable store and the watchdog use <fcntl.h>/<unistd.h> too),
// so there is no fallback engine.
#include <ucontext.h>

// Sanitizer fiber hooks. GCC defines __SANITIZE_*__; Clang exposes
// __has_feature. The interface headers ship with both compilers, but the
// prototypes are declared manually below as a fallback so a toolchain
// without the headers still builds.
#if defined(__SANITIZE_THREAD__)
#define QSM_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define QSM_FIBER_TSAN 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define QSM_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QSM_FIBER_ASAN 1
#endif
#endif

// Steady-state switches avoid swapcontext where we can: glibc's
// swapcontext saves and restores the signal mask with a sigprocmask
// syscall on *every* switch (~1us), which at two switches per lane per
// phase dominates the whole simulator at large p. The fast path enters a
// fiber's fresh stack once via setcontext, then switches with
// _setjmp/_longjmp — register save/restore only, no kernel involvement.
// Sanitizer builds keep the swapcontext path: the TSan/ASan fiber hooks
// are placed around it, and those builds measure correctness, not phases
// per second. Fortified builds also keep it (- _FORTIFY_SOURCE's longjmp
// check rejects cross-stack jumps).
#if defined(__linux__) && !defined(QSM_FIBER_TSAN) && \
    !defined(QSM_FIBER_ASAN) && !defined(_FORTIFY_SOURCE)
#define QSM_FIBER_FAST_SWITCH 1
#include <setjmp.h>
#endif

#if defined(QSM_FIBER_TSAN)
#if __has_include(<sanitizer/tsan_interface.h>)
#include <sanitizer/tsan_interface.h>
#else
extern "C" {
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
void* __tsan_get_current_fiber(void);
}
#endif
#endif

#if defined(QSM_FIBER_ASAN)
#if __has_include(<sanitizer/common_interface_defs.h>)
#include <sanitizer/common_interface_defs.h>
#else
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     size_t* size_old);
}
#endif
#endif

namespace qsm::support {

namespace {
/// Fiber currently executing on this thread; null in carrier context.
thread_local Fiber::Impl* tl_running = nullptr;
}  // namespace

struct Fiber::Impl {
  std::function<void()> fn;
  /// Raw new[] (not make_unique) so the stack pages stay uncommitted until
  /// the fiber actually grows into them.
  std::unique_ptr<char[]> stack;
  std::size_t stack_bytes{0};
  ucontext_t ctx{};      ///< the fiber's initial state (entered once)
  ucontext_t carrier{};  ///< where resume() was called from (slow path)
  bool finished{false};

#if defined(QSM_FIBER_FAST_SWITCH)
  jmp_buf carrier_jmp;  ///< carrier state at the last switch_in
  jmp_buf fiber_jmp;    ///< fiber state at the last switch_out
  bool entered{false};  ///< fiber stack live: _longjmp instead of setcontext
#endif

  // --- sanitizer bookkeeping, unused (but harmless) in plain builds ------
  void* tsan_fiber{nullptr};        ///< this fiber's TSan state
  void* tsan_carrier{nullptr};      ///< carrier's TSan state, per resume()
  void* asan_fiber_fake{nullptr};   ///< fiber's saved ASan fake stack
  void* asan_carrier_fake{nullptr}; ///< carrier's saved ASan fake stack
  const void* carrier_stack_bottom{nullptr};
  std::size_t carrier_stack_size{0};

  /// Announce the switch away from the currently running context into
  /// `this` fiber, then perform it. Runs on the carrier.
  void switch_in() {
#if defined(QSM_FIBER_TSAN)
    tsan_carrier = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber, /*flags=*/0);
#endif
#if defined(QSM_FIBER_ASAN)
    __sanitizer_start_switch_fiber(&asan_carrier_fake, stack.get(),
                                   stack_bytes);
#endif
#if defined(QSM_FIBER_FAST_SWITCH)
    if (_setjmp(carrier_jmp) == 0) {
      if (entered) {
        _longjmp(fiber_jmp, 1);
      }
      entered = true;
      setcontext(&ctx);  // one-way jump onto the fresh fiber stack
    }
#else
    swapcontext(&carrier, &ctx);
#endif
    // Back on the carrier: the fiber yielded or finished.
#if defined(QSM_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(asan_carrier_fake, nullptr, nullptr);
#endif
  }

  /// Announce the switch from this fiber back to its carrier, then perform
  /// it. `final` frees the ASan fake stack (the fiber will never run
  /// again). Runs on the fiber.
  void switch_out([[maybe_unused]] bool final) {
#if defined(QSM_FIBER_TSAN)
    __tsan_switch_to_fiber(tsan_carrier, /*flags=*/0);
#endif
#if defined(QSM_FIBER_ASAN)
    __sanitizer_start_switch_fiber(final ? nullptr : &asan_fiber_fake,
                                   carrier_stack_bottom, carrier_stack_size);
#endif
#if defined(QSM_FIBER_FAST_SWITCH)
    if (final || _setjmp(fiber_jmp) == 0) {
      _longjmp(carrier_jmp, 1);
    }
#else
    swapcontext(&ctx, &carrier);
#endif
    // Resumed again (never reached when final).
#if defined(QSM_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(asan_fiber_fake, &carrier_stack_bottom,
                                    &carrier_stack_size);
#endif
  }

  static void trampoline(unsigned hi, unsigned lo);
};

void Fiber::Impl::trampoline(unsigned hi, unsigned lo) {
  auto* impl = reinterpret_cast<Impl*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
#if defined(QSM_FIBER_ASAN)
  // First instruction on the fiber stack: complete the carrier's
  // start_switch, remembering the carrier stack for the switch back.
  __sanitizer_finish_switch_fiber(nullptr, &impl->carrier_stack_bottom,
                                  &impl->carrier_stack_size);
#endif
  impl->fn();
  impl->finished = true;
  impl->switch_out(/*final=*/true);
  // Unreachable: a finished fiber is never resumed.
}

Fiber::Fiber(std::function<void()> fn, std::size_t stack_bytes)
    : impl_(std::make_unique<Impl>()) {
  QSM_REQUIRE(fn != nullptr, "fiber needs a function");
  // Room for the trampoline, the program, and sanitizer interceptor frames.
  constexpr std::size_t kMinStackBytes = std::size_t{64} << 10;
  impl_->fn = std::move(fn);
  impl_->stack_bytes = stack_bytes < kMinStackBytes ? kMinStackBytes
                                                    : stack_bytes;
  impl_->stack.reset(new char[impl_->stack_bytes]);
  QSM_REQUIRE(getcontext(&impl_->ctx) == 0, "getcontext failed");
  impl_->ctx.uc_stack.ss_sp = impl_->stack.get();
  impl_->ctx.uc_stack.ss_size = impl_->stack_bytes;
  impl_->ctx.uc_link = nullptr;
  const auto addr = reinterpret_cast<std::uintptr_t>(impl_.get());
  // makecontext's variadic int protocol: the pointer travels as two
  // unsigned halves. The cast to void(*)() is the API's own calling
  // convention, not ours.
  makecontext(&impl_->ctx, reinterpret_cast<void (*)()>(&Impl::trampoline), 2,
              static_cast<unsigned>(addr >> 32),
              static_cast<unsigned>(addr & 0xffffffffu));
#if defined(QSM_FIBER_TSAN)
  impl_->tsan_fiber = __tsan_create_fiber(/*flags=*/0);
#endif
}

Fiber::~Fiber() {
#if defined(QSM_FIBER_TSAN)
  if (impl_ && impl_->tsan_fiber != nullptr) {
    __tsan_destroy_fiber(impl_->tsan_fiber);
  }
#endif
}

void Fiber::resume() {
  QSM_REQUIRE(tl_running == nullptr,
              "resume() must be called from carrier context, not a fiber");
  QSM_REQUIRE(!impl_->finished, "cannot resume a finished fiber");
  tl_running = impl_.get();
  impl_->switch_in();
  tl_running = nullptr;
}

bool Fiber::finished() const { return impl_->finished; }

void Fiber::yield() {
  Impl* impl = tl_running;
  QSM_REQUIRE(impl != nullptr, "Fiber::yield() outside a fiber");
  impl->switch_out(/*final=*/false);
}

bool Fiber::in_fiber() { return tl_running != nullptr; }

}  // namespace qsm::support
