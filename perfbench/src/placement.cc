#include "placement.h"

#include <pthread.h>
#include <sched.h>

#include <initializer_list>
#include <vector>

namespace perfbench {

namespace {

/// The CPUs the process may run on, as started.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

/// True when the machine has the four CPUs placement needs.
bool Enabled() { return AllowedCpus().size() >= 4; }

/// Pins the calling thread to the allowed CPUs at `slots` (all of them
/// when empty); does nothing unless Enabled(), so no slot is out of range.
void PinTo(std::initializer_list<size_t> slots) {
  if (!Enabled()) return;
  const std::vector<int>& cpus = AllowedCpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (slots.size() == 0) {
    for (int cpu : cpus) CPU_SET(cpu, &set);
  }
  for (size_t slot : slots) CPU_SET(cpus[slot], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

namespace Placement {

void Generator() { PinTo({0}); }
void Dispatcher() { PinTo({1}); }
void Pool() { PinTo({2, 3}); }
void Any() { PinTo({}); }

}  // namespace Placement

Ballast::Ballast() {
  if (!Enabled()) return;
  spinner_ = std::thread([this] {
    Placement::Dispatcher();
    sched_param param{};
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  });
}

Ballast::~Ballast() {
  stop_.store(true, std::memory_order_relaxed);
  if (spinner_.joinable()) spinner_.join();
}

}  // namespace perfbench
