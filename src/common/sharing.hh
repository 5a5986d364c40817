/**
 * @file
 * Lock primitives and Clang thread-safety annotations for the two
 * genuinely concurrent subsystems: the sweep ThreadPool and
 * ExperimentContext's solo-IPC cache.
 *
 * The capability macros (SIM_CAPABILITY, SIM_GUARDED_BY, SIM_REQUIRES,
 * SIM_ACQUIRE, ...) lower to Clang thread-safety attributes under
 * Clang, where scripts/thread_safety.sh builds every TU with
 * -Wthread-safety as errors, and to nothing elsewhere, so GCC builds
 * are unaffected.  Every mutex guarding shared state is a SimMutex so
 * its SIM_GUARDED_BY members are actually checked.
 */

#ifndef GARIBALDI_COMMON_SHARING_HH
#define GARIBALDI_COMMON_SHARING_HH

#include <mutex>

// ---- attribute plumbing ----------------------------------------------
#if defined(__clang__)
#define SIM_TSA_(x) __attribute__((x))
#else
#define SIM_TSA_(x) // no-op outside Clang
#endif

// ---- Clang thread-safety capabilities --------------------------------
#define SIM_CAPABILITY(x) SIM_TSA_(capability(x))
#define SIM_SCOPED_CAPABILITY SIM_TSA_(scoped_lockable)
#define SIM_GUARDED_BY(x) SIM_TSA_(guarded_by(x))
#define SIM_PT_GUARDED_BY(x) SIM_TSA_(pt_guarded_by(x))
#define SIM_REQUIRES(...) SIM_TSA_(requires_capability(__VA_ARGS__))
#define SIM_ACQUIRE(...) SIM_TSA_(acquire_capability(__VA_ARGS__))
#define SIM_RELEASE(...) SIM_TSA_(release_capability(__VA_ARGS__))
#define SIM_TRY_ACQUIRE(...)                                             \
    SIM_TSA_(try_acquire_capability(__VA_ARGS__))
#define SIM_EXCLUDES(...) SIM_TSA_(locks_excluded(__VA_ARGS__))
#define SIM_NO_THREAD_SAFETY_ANALYSIS SIM_TSA_(no_thread_safety_analysis)

namespace garibaldi
{

/**
 * std::mutex wrapped as a Clang thread-safety capability.  libstdc++'s
 * std::mutex carries no capability attribute, so locking it directly is
 * invisible to -Wthread-safety; every mutex guarding simulator state
 * must be a SimMutex so SIM_GUARDED_BY members are actually enforced.
 */
class SIM_CAPABILITY("mutex") SimMutex
{
  public:
    SimMutex() = default;
    SimMutex(const SimMutex &) = delete;
    SimMutex &operator=(const SimMutex &) = delete;

    void lock() SIM_ACQUIRE() { m.lock(); }
    void unlock() SIM_RELEASE() { m.unlock(); }
    bool try_lock() SIM_TRY_ACQUIRE(true) { return m.try_lock(); }

    /** Underlying mutex for condition-variable wiring. */
    std::mutex &native() { return m; }

  private:
    std::mutex m;
};

/**
 * RAII lock over a SimMutex with relock support (scoped capability).
 * Holds a std::unique_lock so std::condition_variable::wait can run on
 * native(); the analysis treats the capability as held across the wait,
 * which matches the invariant that matters — the guarded predicate is
 * only ever evaluated with the lock held.
 */
class SIM_SCOPED_CAPABILITY SimLock
{
  public:
    explicit SimLock(SimMutex &mu) SIM_ACQUIRE(mu) : lk(mu.native()) {}
    ~SimLock() SIM_RELEASE() {} // unique_lock releases iff still held

    SimLock(const SimLock &) = delete;
    SimLock &operator=(const SimLock &) = delete;

    /** Reacquire after unlock() (e.g. around running a pool task). */
    void lock() SIM_ACQUIRE() { lk.lock(); }
    /** Drop the lock early; the destructor then does nothing. */
    void unlock() SIM_RELEASE() { lk.unlock(); }

    /** The managed lock, for std::condition_variable::wait. */
    std::unique_lock<std::mutex> &native() { return lk; }

  private:
    std::unique_lock<std::mutex> lk;
};

} // namespace garibaldi

#endif // GARIBALDI_COMMON_SHARING_HH
