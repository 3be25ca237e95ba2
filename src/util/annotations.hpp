/**
 * @file
 * Clang thread-safety capability annotations (DESIGN.md §16).
 *
 * The determinism contract ("bit-identical replay for any thread
 * count") used to rest entirely on runtime gates: the TSan
 * tiers only catch interleavings that actually execute, and the
 * fingerprint suites only catch divergence that actually happened.
 * These macros move the locking half of that contract into the type
 * system: every mutex in the tree is a declared *capability*, every
 * guarded member says which capability protects it, and Clang's
 * -Wthread-safety analysis proves at compile time that no access
 * slips past its lock. The `thread-safety` CI job builds the whole
 * tree with -Werror=thread-safety, so a missing lock is a build
 * break, not a flaky TSan report.
 *
 * On compilers without the capability attribute (GCC builds the
 * tier-1 matrix) every macro expands to nothing — the annotated
 * wrappers in runtime/mutex.hpp compile to plain std::mutex code
 * with zero overhead either way.
 *
 * Naming follows the Clang thread-safety attribute vocabulary; see
 * https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for the
 * underlying semantics.
 */

#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define POCO_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif

#ifndef POCO_THREAD_ANNOTATION
#define POCO_THREAD_ANNOTATION(x) // no-op outside Clang
#endif

/** Declares a class to BE a capability (e.g. a mutex wrapper). */
#define POCO_CAPABILITY(name) \
    POCO_THREAD_ANNOTATION(capability(name))

/** Declares an RAII class that acquires on ctor, releases on dtor. */
#define POCO_SCOPED_CAPABILITY \
    POCO_THREAD_ANNOTATION(scoped_lockable)

/** Member may only be touched while holding the given capability. */
#define POCO_GUARDED_BY(x) POCO_THREAD_ANNOTATION(guarded_by(x))

/** Pointee may only be touched while holding the given capability. */
#define POCO_PT_GUARDED_BY(x) \
    POCO_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function requires the capabilities to be held on entry (and does
 *  not release them). */
#define POCO_REQUIRES(...) \
    POCO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the capabilities and holds them on exit. */
#define POCO_ACQUIRE(...) \
    POCO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the capabilities (held on entry). */
#define POCO_RELEASE(...) \
    POCO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the capability iff it returns the given value. */
#define POCO_TRY_ACQUIRE(...) \
    POCO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Function may not be called while holding the capabilities (the
 *  anti-deadlock complement of POCO_REQUIRES). */
#define POCO_EXCLUDES(...) \
    POCO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Documents lock-ordering: this capability before those. */
#define POCO_ACQUIRED_BEFORE(...) \
    POCO_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/** Documents lock-ordering: this capability after those. */
#define POCO_ACQUIRED_AFTER(...) \
    POCO_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Runtime assertion that the capability is held (the analysis
 *  trusts it from this point on — e.g. inside a wait predicate). */
#define POCO_ASSERT_CAPABILITY(x) \
    POCO_THREAD_ANNOTATION(assert_capability(x))

/** Function returns a reference to the given capability. */
#define POCO_RETURN_CAPABILITY(x) \
    POCO_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: disables the analysis for one function. Reserve for
 *  code the analysis cannot express; pair with a comment saying why. */
#define POCO_NO_THREAD_SAFETY_ANALYSIS \
    POCO_THREAD_ANNOTATION(no_thread_safety_analysis)
