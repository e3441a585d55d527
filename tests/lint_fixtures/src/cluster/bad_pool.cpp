// no-pool-in-kernels: a kernel module (tensor, nn, cluster) fanning out
// over the thread pool instead of running on its calling thread.
#include "util/parallel.hpp"  // FIXTURE: fires

namespace anole::cluster {

void scale_points(float* points, unsigned long n) {
  par::parallel_for(0, n, 64, [&](unsigned long i) { points[i] *= 2.0f; });
}

}  // namespace anole::cluster
