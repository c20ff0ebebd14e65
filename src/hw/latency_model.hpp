// Analytic latency and memory-access model of the accelerator.
//
// These closed-form cycle counts are derived from the row-based dataflow of
// paper Alg. 1 / Fig. 2 and are the single timing contract of the design:
// the cycle-accurate unit simulators step the same state machine cycle by
// cycle and must report identical totals (README invariant 4, tested in
// tests/hw and swept in bench/ablation_cycle_model).
//
// Pass structure of one convolution unit (one group, one time step, one
// input channel):
//
//   setup | row 0 | row 1 | ... | row R-1 |        R = ih + 2*pad rows
//          <-- row_period cycles each -->
//
//   row_period = max(Kc, row_fetch)   — the input shift register shifts Kc
//   times per row while the next row is prefetched from the activation
//   buffer (double buffering); fetch takes ceil(iw / act_read_bits) cycles,
//   multiplied by the port-contention factor when several conv units share
//   the activation buffer ports.
//
// Output channels: a unit holds `share = floor(X / ow)` output channels side
// by side (paper: "multiple output channels can share a single convolution
// unit"); U units work on different channels, so a layer needs
// `groups = ceil(cout / (U * share))` sequential group phases. If ow > X the
// feature map is tiled (`tiles` column tiles), which the paper's sizing rule
// X >= max(ow) avoids.
#pragma once

#include <cstdint>

#include "hw/arch.hpp"

namespace rsnn::hw {

/// Dimensions of a convolution layer instance.
struct ConvDims {
  std::int64_t cin = 0, cout = 0;
  std::int64_t ih = 0, iw = 0;
  std::int64_t kernel = 0, stride = 1, padding = 0;

  std::int64_t oh() const { return (ih + 2 * padding - kernel) / stride + 1; }
  std::int64_t ow() const { return (iw + 2 * padding - kernel) / stride + 1; }
};

/// Memory traffic of one layer, in bits.
struct MemTraffic {
  std::int64_t act_read_bits = 0;    ///< activation buffer reads
  std::int64_t act_write_bits = 0;   ///< activation buffer writes
  std::int64_t weight_read_bits = 0; ///< weight BRAM reads
  std::int64_t dram_bits = 0;        ///< external DRAM traffic
};

/// Cycle breakdown of one layer on the accelerator.
struct LayerLatency {
  std::int64_t total_cycles = 0;
  std::int64_t compute_cycles = 0;   ///< unit-busy cycles (incl. stalls)
  std::int64_t dram_cycles = 0;      ///< serial parameter fetch before compute
  std::int64_t writeback_cycles = 0; ///< output store to the ping-pong buffer
  // Structural quantities (exposed for tests and ablations):
  std::int64_t groups = 0;
  std::int64_t channels_per_unit = 0;
  std::int64_t tiles = 0;
  std::int64_t row_period = 0;
  MemTraffic traffic;
};

/// Effective row fetch cycles including port contention.
std::int64_t conv_row_fetch_cycles(std::int64_t iw, const TimingParams& timing,
                                   int active_units);

/// Latency of a convolution layer.
LayerLatency conv_latency(const ConvDims& dims, const AcceleratorConfig& cfg,
                          int time_steps, WeightPlacement placement,
                          int weight_bits);

/// Latency of an average pooling layer (kernel == stride == k).
LayerLatency pool_latency(std::int64_t channels, std::int64_t ih,
                          std::int64_t iw, std::int64_t kernel,
                          const AcceleratorConfig& cfg, int time_steps);

/// Latency of a fully-connected layer.
LayerLatency linear_latency(std::int64_t in_features, std::int64_t out_features,
                            const AcceleratorConfig& cfg, int time_steps,
                            WeightPlacement placement, int weight_bits);

/// Cycles to move a flattened feature map from the 2-D to the 1-D buffers.
std::int64_t flatten_transfer_cycles(std::int64_t numel, int time_steps,
                                     const TimingParams& timing);

/// Cycles to move `bits` of cut-tensor activations across an inter-device
/// stream link of `link_bits_per_cycle` (plus a fixed per-transfer handshake
/// cost) — the communication term the pipeline partitioners trade against
/// bottleneck latency. Zero-bit transfers are free.
std::int64_t inter_device_transfer_cycles(std::int64_t bits,
                                          std::int64_t link_bits_per_cycle,
                                          std::int64_t setup_cycles);

/// Activation-buffer reads of a *naive* (sliding window, no row reuse)
/// convolution dataflow, for the memory-access ablation: every output pixel
/// re-reads its full Kr x Kc window.
std::int64_t naive_conv_act_reads_bits(const ConvDims& dims, int time_steps);

}  // namespace rsnn::hw
