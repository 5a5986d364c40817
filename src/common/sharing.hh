/**
 * @file
 * Lock primitives and Clang thread-safety annotations for the one
 * lock in the tree: ExperimentContext's solo-IPC cache.
 *
 * The capability macros (SIM_CAPABILITY, SIM_GUARDED_BY, SIM_ACQUIRE,
 * ...) lower to Clang thread-safety attributes under Clang, where
 * scripts/thread_safety.sh builds every TU with -Wthread-safety as
 * errors, and to nothing elsewhere, so GCC builds are unaffected.
 * Every mutex guarding shared state is a SimMutex so its
 * SIM_GUARDED_BY members are actually checked.
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
#define SIM_ACQUIRE(...) SIM_TSA_(acquire_capability(__VA_ARGS__))
#define SIM_RELEASE(...) SIM_TSA_(release_capability(__VA_ARGS__))

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

  private:
    std::mutex m;
};

/** RAII lock over a SimMutex (scoped capability). */
class SIM_SCOPED_CAPABILITY SimLock
{
  public:
    explicit SimLock(SimMutex &mu) SIM_ACQUIRE(mu) : mtx(mu)
    {
        mu.lock();
    }
    ~SimLock() SIM_RELEASE() { mtx.unlock(); }

    SimLock(const SimLock &) = delete;
    SimLock &operator=(const SimLock &) = delete;

  private:
    SimMutex &mtx;
};

} // namespace garibaldi

#endif // GARIBALDI_COMMON_SHARING_HH
