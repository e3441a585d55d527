// no-pool-in-kernels: core fans out over whole tasks, so it may include
// the pool.
#include "util/parallel.hpp"  // no finding: core is not a kernel module

namespace anole::core {

void train_all(unsigned long candidates) {
  par::parallel_for(0, candidates, 1, [&](unsigned long) {});
}

}  // namespace anole::core
