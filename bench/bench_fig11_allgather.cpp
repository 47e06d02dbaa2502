// Fig 11 reproduction: allgather latency from 2 to 32 GPUs for the two
// gradient sizes of the paper's workloads (AlexNet 250MB on ImageNet,
// ResNet32 6MB on CIFAR-10) over FDR InfiniBand. The shape to reproduce:
// cost grows ~linearly with the number of GPUs because the total volume an
// allgather moves per node is (p-1) blocks.
#include <cstdio>

#include "bench_common.h"
#include "fftgrad/comm/network_model.h"

int main() {
  using namespace fftgrad;
  const auto net = comm::NetworkModel::infiniband_fdr56();

  bench::print_header("Fig 11: allgather latency vs GPU count (56Gbps FDR)");
  util::TableWriter table({"gpus", "AlexNet 250MB (ms)", "ResNet32 6MB (ms)",
                           "alexnet vs 2gpu"});
  table.set_double_format("%.2f");
  double base = 0.0;
  for (std::size_t gpus : {2, 4, 8, 16, 24, 32}) {
    // Every rank contributes its full gradient; blocks are gradient-sized.
    const double alexnet =
        net.allgather_time(util::Bytes(250e6), gpus).to_double() * 1e3;
    const double resnet = net.allgather_time(util::Bytes(6e6), gpus).to_double() * 1e3;
    if (gpus == 2) base = alexnet;
    table.add_row({static_cast<long long>(gpus), alexnet, resnet, alexnet / base});
  }
  bench::print_table(table);
  std::puts("\nExpected shape: near-linear growth in GPU count (paper Fig 11); the\n"
            "250MB AlexNet gradient dominates the 6MB ResNet32 one by ~42x at every scale.");
  return 0;
}
