#include "machine/machine.hh"

#include "common/logging.hh"

namespace mopt {

const char *
memLevelName(int level)
{
    switch (level) {
      case LvlReg:
        return "Reg";
      case LvlL1:
        return "L1";
      case LvlL2:
        return "L2";
      case LvlL3:
        return "L3";
      default:
        return "?";
    }
}

double
MachineSpec::peakGflopsPerCore() const
{
    return 2.0 * vec_lanes * fma_units * freq_ghz;
}

double
MachineSpec::peakGflops() const
{
    return peakGflopsPerCore() * cores;
}

std::int64_t
MachineSpec::capacityWords(int level) const
{
    checkUser(level >= 0 && level < NumMemLevels, "bad memory level");
    return levels[static_cast<std::size_t>(level)].capacityWords();
}

double
MachineSpec::bandwidth(int level, bool parallel) const
{
    checkUser(level >= 0 && level < NumMemLevels, "bad memory level");
    const MemLevel &l = levels[static_cast<std::size_t>(level)];
    return parallel ? l.bw_par_gbps : l.bw_seq_gbps;
}

void
MachineSpec::validate() const
{
    checkUser(cores >= 1, "MachineSpec: cores must be >= 1");
    checkUser(vec_lanes >= 1 && fma_units >= 1 && fma_latency >= 1,
              "MachineSpec: SIMD parameters must be >= 1");
    checkUser(t_call >= 0 && t_sync >= 0,
              "MachineSpec: overhead costs must be non-negative");
    for (int l = 0; l < NumMemLevels; ++l) {
        const MemLevel &lvl = levels[static_cast<std::size_t>(l)];
        checkUser(lvl.capacity_bytes > 0,
                  "MachineSpec: level capacity must be positive");
        checkUser(lvl.bw_seq_gbps > 0 && lvl.bw_par_gbps > 0,
                  "MachineSpec: level bandwidth must be positive");
        if (l > 0) {
            checkUser(lvl.capacity_bytes >
                          levels[static_cast<std::size_t>(l - 1)]
                              .capacity_bytes,
                      "MachineSpec: capacities must grow outward");
        }
    }
}

MachineSpec
i7_9700k()
{
    MachineSpec m;
    m.name = "i7-9700K";
    m.cores = 8;
    m.vec_lanes = 8;  // AVX2
    m.fma_units = 2;
    m.fma_latency = 5;
    m.vec_registers = 16;
    m.freq_ghz = 3.6;
    // Register file: 16 ymm regs * 8 fp32 lanes * 4 B.
    m.levels[LvlReg] = {16 * 8 * 4, 430.0, 430.0};
    // 32 KB L1D per core; L2-to-L1 stream bandwidth.
    m.levels[LvlL1] = {32 * 1024, 210.0, 210.0};
    // 256 KB L2 per core; L3-to-L2 bandwidth (per-core parallel share).
    m.levels[LvlL2] = {256 * 1024, 80.0, 42.0};
    // 12 MB shared L3; DRAM bandwidth (dual-channel DDR4-2666).
    m.levels[LvlL3] = {12 * 1024 * 1024, 21.0, 38.0};
    // Overheads fitted on a 4-vCPU AVX2/FMA KVM guest with
    //   python3 tools/fit_overheads.py build/bench/bench_microkernel
    // (medians of 5 runs, two fits gave 125 and 135 ns, 3.9 and
    // 4.1 us): the intercept of time per register block against
    // reduction length, and one parallelFor round trip.
    m.t_call = 130e-9;
    m.t_sync = 4e-6;
    m.validate();
    return m;
}

MachineSpec
i9_10980xe()
{
    MachineSpec m;
    m.name = "i9-10980XE";
    m.cores = 18;
    m.vec_lanes = 16; // AVX-512
    m.fma_units = 2;
    m.fma_latency = 5;
    m.vec_registers = 32;
    m.freq_ghz = 3.0;
    m.levels[LvlReg] = {32 * 16 * 4, 760.0, 760.0};
    m.levels[LvlL1] = {32 * 1024, 390.0, 390.0};
    // 1 MB L2 per core.
    m.levels[LvlL2] = {1024 * 1024, 110.0, 48.0};
    // 24.75 MB shared L3; quad-channel DDR4-2933.
    m.levels[LvlL3] = {
        static_cast<std::int64_t>(24.75 * 1024 * 1024), 28.0, 84.0};
    // No i9 host to fit on: the i7 preset's fitted overheads.
    m.t_call = 130e-9;
    m.t_sync = 4e-6;
    m.validate();
    return m;
}

MachineSpec
tinyTestMachine()
{
    MachineSpec m;
    m.name = "tiny";
    m.cores = 2;
    m.vec_lanes = 4;
    m.fma_units = 1;
    m.fma_latency = 4;
    m.vec_registers = 16;
    m.freq_ghz = 1.0;
    m.levels[LvlReg] = {16 * 4 * 4, 64.0, 64.0};
    m.levels[LvlL1] = {1024, 32.0, 32.0};      // 256 words
    m.levels[LvlL2] = {8 * 1024, 16.0, 10.0};  // 2K words
    m.levels[LvlL3] = {64 * 1024, 4.0, 6.0};   // 16K words
    // Synthetic: no host to fit t_call / t_sync on, so both stay 0.
    m.validate();
    return m;
}

MachineSpec
machineByName(const std::string &name)
{
    if (name == "i7" || name == "i7-9700K")
        return i7_9700k();
    if (name == "i9" || name == "i9-10980XE")
        return i9_10980xe();
    if (name == "tiny")
        return tinyTestMachine();
    fatal("unknown machine preset: " + name);
}

} // namespace mopt
