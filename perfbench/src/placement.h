#ifndef PERFBENCH_PLACEMENT_H_
#define PERFBENCH_PLACEMENT_H_

#include <atomic>
#include <thread>

namespace perfbench {

/// CPU placement of the benchmark's threads. With at least four CPUs the
/// load generator, the server's dispatcher and the two pool workers each
/// get their own, so no run depends on where the scheduler happened to put
/// them. Each call pins the calling thread; threads it starts afterwards
/// inherit the mask. With fewer than four CPUs every call does nothing.
namespace Placement {
void Generator();
void Dispatcher();
void Pool();
/// Undoes the pinning of the calling thread.
void Any();
}  // namespace Placement

/// While alive, keeps the dispatcher's CPU out of the idle state with a
/// lowest-priority (SCHED_IDLE) spinning thread, as the `idle=poll` boot
/// option would. The dispatcher, woken by a request, then preempts the
/// spinner at once instead of waiting for the hypervisor to resume a halted
/// virtual CPU, which otherwise adds up to milliseconds at random to the
/// latency of whichever request woke it. The generator's CPU needs none (it
/// spins), and the pool's need none (the dispatcher never waits for a pool
/// worker that has not started). Does nothing when placement is disabled.
class Ballast {
 public:
  Ballast();
  ~Ballast();
  Ballast(const Ballast&) = delete;
  Ballast& operator=(const Ballast&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread spinner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PLACEMENT_H_
