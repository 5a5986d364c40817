/**
 * @file
 * Fixed-size worker pool for the sweep engine.
 *
 * The cache model itself is single-threaded (as in FlexiCAS-style
 * harnesses, parallelism lives in the experiment layer): each sweep
 * job owns a complete System, so jobs only share read-only inputs and
 * write disjoint result slots.  parallelFor() hands out indices from
 * an atomic counter, which keeps workers busy regardless of per-job
 * runtime variance while leaving result ordering to the caller's
 * index-addressed output array — execution order never affects output.
 *
 * This is one of the two genuinely concurrent subsystems in the tree
 * (the other is ExperimentContext's solo-IPC cache), so its lock
 * discipline is enforced by the clang -Wthread-safety lane: the queue
 * state is SIM_GUARDED_BY(mtx), helpers that expect the lock say
 * SIM_REQUIRES(mtx), and every lock is a SimMutex/SimLock pair from
 * src/common/sharing.hh.
 */

#ifndef GARIBALDI_SWEEP_THREAD_POOL_HH
#define GARIBALDI_SWEEP_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/sharing.hh"

namespace garibaldi
{

/** Clamp a --jobs request: 0 means "all hardware threads". */
unsigned resolveJobCount(unsigned requested);

/**
 * A pool of @p threads workers executing queued tasks.  Destruction
 * joins the workers after draining the queue.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 resolves to hardware threads. */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of workers actually running. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /** Enqueue one task. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    /**
     * Run @p body(i) for every i in [0, count).  Indices are handed to
     * workers dynamically; with a single worker (or count <= 1) the
     * loop runs inline on the caller.  Blocks until all complete.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

  private:
    void workerLoop();

    /** Queue empty and nothing running — wait()'s wake condition. */
    bool drainedLocked() const SIM_REQUIRES(mtx)
    {
        return queueHead == queue.size() && inFlight == 0;
    }

    std::vector<std::thread> workers;
    // FIFO via head index
    std::vector<std::function<void()>> queue SIM_GUARDED_BY(mtx);
    std::size_t queueHead SIM_GUARDED_BY(mtx) = 0;
    std::size_t inFlight SIM_GUARDED_BY(mtx) = 0;
    bool stopping SIM_GUARDED_BY(mtx) = false;
    SimMutex mtx;
    std::condition_variable cvTask; //!< workers await tasks
    std::condition_variable cvIdle; //!< wait() awaits drain
};

} // namespace garibaldi

#endif // GARIBALDI_SWEEP_THREAD_POOL_HH
