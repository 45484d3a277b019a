/**
 * @file
 * Tests of the machine presets and derived quantities.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "machine/machine.hh"

namespace mopt {
namespace {

TEST(Machine, I7PresetMatchesPaperPlatform)
{
    const MachineSpec m = i7_9700k();
    EXPECT_EQ(m.cores, 8);
    EXPECT_EQ(m.vec_lanes, 8);
    EXPECT_EQ(m.levels[LvlL1].capacity_bytes, 32 * 1024);
    EXPECT_EQ(m.levels[LvlL2].capacity_bytes, 256 * 1024);
    EXPECT_EQ(m.levels[LvlL3].capacity_bytes, 12 * 1024 * 1024);
    EXPECT_NO_THROW(m.validate());
}

TEST(Machine, I9PresetMatchesPaperPlatform)
{
    const MachineSpec m = i9_10980xe();
    EXPECT_EQ(m.cores, 18);
    EXPECT_EQ(m.vec_lanes, 16);
    EXPECT_EQ(m.levels[LvlL2].capacity_bytes, 1024 * 1024);
    EXPECT_EQ(m.levels[LvlL3].capacity_bytes,
              static_cast<std::int64_t>(24.75 * 1024 * 1024));
}

TEST(Machine, DerivedQuantities)
{
    const MachineSpec m = i7_9700k();
    // 2 flops * 8 lanes * 2 units * 3.6 GHz = 115.2 GFLOPS/core.
    EXPECT_NEAR(m.peakGflopsPerCore(), 115.2, 1e-9);
    EXPECT_NEAR(m.peakGflops(), 8 * 115.2, 1e-9);
    EXPECT_EQ(m.capacityWords(LvlL1), 32 * 1024 / 4);
}

TEST(Machine, LevelNamesAndLookup)
{
    EXPECT_STREQ(memLevelName(LvlReg), "Reg");
    EXPECT_STREQ(memLevelName(LvlL3), "L3");
    EXPECT_EQ(machineByName("i7").name, "i7-9700K");
    EXPECT_EQ(machineByName("i9").name, "i9-10980XE");
    EXPECT_EQ(machineByName("tiny").name, "tiny");
    EXPECT_THROW(machineByName("pdp11"), FatalError);
}

TEST(Machine, ValidateCatchesNonMonotoneCapacities)
{
    MachineSpec m = i7_9700k();
    m.levels[LvlL2].capacity_bytes = m.levels[LvlL1].capacity_bytes;
    EXPECT_THROW(m.validate(), FatalError);
}

TEST(Machine, TinyMachineIsSmall)
{
    const MachineSpec m = tinyTestMachine();
    EXPECT_LE(m.capacityWords(LvlL1), 512);
    EXPECT_NO_THROW(m.validate());
}

} // namespace
} // namespace mopt
