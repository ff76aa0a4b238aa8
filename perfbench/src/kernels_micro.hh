/**
 * @file
 * The kernels layer measured directly: each function of kernelOps()
 * timed over the calls one forward of a zoo model makes, on real
 * activations, with the dispatched ISA.
 */

#ifndef PERFBENCH_KERNELS_MICRO_HH
#define PERFBENCH_KERNELS_MICRO_HH

#include "measure.hh"
#include "nn/network.hh"
#include "snapea/params.hh"

namespace perfbench {

/**
 * Add kernels.<fn>.<ns_per_call|gmac_s|bytes_per_call> for conv_row,
 * prefix_row, walk_row (large maps), conv_chan (maps of at most 64
 * windows) and dense (fully connected layers) of @p net, whose
 * activations come from a plain forward of @p image.  The row
 * kernels run on @p plan's packed kernels.
 */
void kernelsMicro(Result &r, const snapea::Network &net,
                  const snapea::NetworkPlan &plan,
                  const snapea::Tensor &image);

} // namespace perfbench

#endif // PERFBENCH_KERNELS_MICRO_HH
