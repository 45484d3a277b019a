/**
 * @file
 * Machine abstraction: a multi-level memory hierarchy (registers, L1,
 * L2, shared L3, DRAM) with per-level capacities and bandwidths, core
 * count and SIMD parameters. Presets model the paper's two evaluation
 * platforms (Intel i7-9700K and i9-10980XE).
 */

#ifndef MOPT_MACHINE_MACHINE_HH
#define MOPT_MACHINE_MACHINE_HH

#include <array>
#include <cstdint>
#include <string>

namespace mopt {

/** Indices of the tiling levels, innermost first. */
enum MemLevelId {
    LvlReg = 0, //!< Register tile (microkernel).
    LvlL1 = 1,
    LvlL2 = 2,
    LvlL3 = 3,
    NumMemLevels = 4,
};

/** Name of a memory level ("Reg", "L1", "L2", "L3"). */
const char *memLevelName(int level);

/**
 * One level of the hierarchy. The bandwidth fields describe transfers
 * between this level and the *next outer* one (e.g. for LvlL2 they are
 * the L3-to-L2 bandwidths). Following Sec. 7 of the paper, private
 * levels use the sequential (per-core) bandwidth in both modes, while
 * the shared levels use separately probed parallel bandwidths.
 */
struct MemLevel
{
    std::int64_t capacity_bytes = 0; //!< Per-core for Reg/L1/L2, total for L3.
    double bw_seq_gbps = 0.0;  //!< Single-core bandwidth to the outer level.
    double bw_par_gbps = 0.0;  //!< Effective per-core bandwidth, all cores on.

    /** Capacity in fp32 words. */
    std::int64_t capacityWords() const { return capacity_bytes / 4; }
};

/** A complete machine description. */
struct MachineSpec
{
    std::string name;
    int cores = 1;
    int vec_lanes = 8;     //!< fp32 lanes per SIMD register (8 = AVX2).
    int fma_units = 2;     //!< FMA pipes per core.
    int fma_latency = 5;   //!< FMA latency in cycles (Sec. 6 uses 4-6).
    int vec_registers = 16; //!< Architectural SIMD registers per core.
    double freq_ghz = 3.0;
    std::array<MemLevel, NumMemLevels> levels;

    /**
     * Fixed cost (seconds) of one microkernel call: accumulator load
     * and store plus call set-up, paid once per register tile and L1
     * reduction tile whatever the reduction length.
     */
    double t_call = 0.0;

    /** Fixed cost (seconds) of one parallel region: fork plus join. */
    double t_sync = 0.0;

    /** Peak fp32 GFLOPS of one core: 2 flops * lanes * units * freq. */
    double peakGflopsPerCore() const;

    /** Peak fp32 GFLOPS of the whole chip. */
    double peakGflops() const;

    /** Capacity of @p level in fp32 words. */
    std::int64_t capacityWords(int level) const;

    /**
     * Bandwidth (GB/s) between @p level and the next outer level.
     * @param parallel  use the all-cores-active calibration.
     */
    double bandwidth(int level, bool parallel) const;

    /** Validate invariants (monotone capacities, positive bandwidths). */
    void validate() const;
};

/** The paper's 8-core Intel Core i7-9700K (CoffeeLake) platform. */
MachineSpec i7_9700k();

/** The paper's 18-core Intel Core i9-10980XE (CascadeLake) platform. */
MachineSpec i9_10980xe();

/**
 * A small machine with tiny caches, used by tests so that model
 * assumptions (tiles exceed capacity) hold on small problems.
 */
MachineSpec tinyTestMachine();

/** Look up a preset by name ("i7", "i9", "tiny"). */
MachineSpec machineByName(const std::string &name);

} // namespace mopt

#endif // MOPT_MACHINE_MACHINE_HH
