// Accelerator architecture configuration (paper Fig. 1).
//
// One AcceleratorConfig describes a synthesized design instance: how many
// convolution units of which geometry, the pooling and linear units, clock
// frequency, and the memory system. The compiler (src/compiler) derives a
// config from a network; experiments can also construct one directly (the
// paper's LeNet setup is `lenet_reference_config()`).
#pragma once

#include <cstdint>
#include <string>

namespace rsnn::hw {

/// Geometry of one convolution unit's adder array (paper Fig. 2).
struct ConvUnitGeometry {
  int array_columns = 30;  ///< X: parallel output columns (>= widest row to avoid tiling)
  int kernel_rows = 5;     ///< Y: adder rows == kernel rows processed in pipeline
  int accumulator_bits = 24;  ///< partial sums at full precision
};

/// Geometry of the pooling unit (row-based, no kernel storage).
struct PoolUnitGeometry {
  int array_columns = 14;
  int kernel_rows = 2;
  int accumulator_bits = 16;
};

/// The linear unit: a row of adders fed by one weight fetch per cycle.
struct LinearUnitGeometry {
  int lanes = 16;             ///< parallel output channels ("proportional to
                              ///< the available memory bandwidth")
  int accumulator_bits = 24;
};

/// Cycle-level timing parameters of the micro-architecture. These are the
/// knobs the cycle-accurate simulator and the analytic model share; the
/// defaults reflect the dataflow the paper describes (kernel loads overlap
/// input shifts; activation rows are fetched from block RAM before a row
/// pass begins).
struct TimingParams {
  /// Activation bits read per cycle per buffer port when filling the input
  /// shift register. One row of width `iw` costs ceil(iw / this) cycles.
  int act_read_bits_per_cycle = 32;
  /// Number of read ports on the activation buffer; concurrent conv units
  /// round-robin on them (source of the sub-linear latency scaling in
  /// Table II alongside the non-duplicated pool/linear units).
  int act_read_ports = 1;
  /// Fixed cycles to start one (time step, input channel) pass of a unit.
  int pass_setup_cycles = 2;
  /// Fixed cycles to configure a unit for a new layer (kernel prefetch,
  /// address setup).
  int layer_setup_cycles = 32;
  /// Cycles to write one completed output row back to the ping-pong buffer.
  /// Writeback is double-buffered, so it only stalls if longer than a row
  /// pass; it is accounted at the end of each pass pipeline drain.
  int writeback_cycles_per_row = 1;
};

/// Weight storage placement for a layer (paper Sec. III-C).
enum class WeightPlacement {
  kOnChip,  ///< block RAM, single-cycle access at full width
  kDram,    ///< streamed from external DRAM before/while computing the layer
};

/// Memory system description.
struct MemoryConfig {
  /// Total on-chip block RAM available for weights, in bits. XCVU13P-class
  /// budget by default (a fraction of the 455 Mb total is usable for
  /// parameters; activations use their own buffers).
  std::int64_t weight_bram_bits = std::int64_t{16} * 1024 * 1024 * 8;
  /// DRAM streaming bandwidth in bits per clock cycle (width of the
  /// memory-controller interface as seen by the fabric).
  int dram_bits_per_cycle = 64;
  /// Fixed DRAM burst setup cost per layer fetched from DRAM.
  int dram_setup_cycles = 200;
};

/// Sizing of the ping-pong activation buffers derived from the network
/// (Sec. III-C: "width and height ... minimizes their size while allowing
/// the activations of all relevant layers to fit").
struct BufferPlan {
  std::int64_t buffer2d_bits_each = 0;
  std::int64_t buffer1d_bits_each = 0;
};

/// A full design instance.
struct AcceleratorConfig {
  std::string name = "accelerator";
  double clock_mhz = 100.0;
  int num_conv_units = 2;
  ConvUnitGeometry conv;
  PoolUnitGeometry pool;
  LinearUnitGeometry linear;
  TimingParams timing;
  MemoryConfig memory;

  double cycle_ns() const { return 1000.0 / clock_mhz; }
};

/// The paper's LeNet-5 experiment setup (Sec. IV-A): (X, Y) = (30, 5) conv,
/// (14, 2) pool, 100 MHz, two conv units (Table I).
AcceleratorConfig lenet_reference_config();

/// The Table III LeNet row: 4 conv units at 200 MHz.
AcceleratorConfig lenet_table3_config();

/// The Table III VGG-11 row: 8 conv units at 115 MHz, DRAM weights.
AcceleratorConfig vgg11_table3_config();

}  // namespace rsnn::hw
