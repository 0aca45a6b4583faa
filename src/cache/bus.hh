/**
 * @file
 * Shared-bus model with arbitration, contention, and transfer delay
 * (paper Section 4: a 16-byte 1 GHz bus between the L1s and L2, and a
 * 32-byte 2 GHz bus between the L2 and main memory, with a 2 GHz core).
 */

#ifndef RSR_CACHE_BUS_HH
#define RSR_CACHE_BUS_HH

#include <cstdint>
#include <string>

#include "util/logging.hh"

namespace rsr::cache
{

/** Static bus configuration. */
struct BusParams
{
    std::string name = "bus";
    unsigned widthBytes = 16;
    /** CPU cycles per bus cycle (core frequency / bus frequency). */
    unsigned cpuCyclesPerBusCycle = 2;

    bool operator==(const BusParams &) const = default;
};

/** Bus usage statistics. */
struct BusStats
{
    std::uint64_t transfers = 0;
    std::uint64_t busyCycles = 0;
    std::uint64_t waitCycles = 0;
};

/**
 * A single-master-at-a-time bus. Requests arbitrate in arrival order:
 * a transfer begins at max(request time, bus-free time) and occupies the
 * bus for ceil(bytes/width) bus cycles.
 */
class Bus
{
  public:
    explicit Bus(const BusParams &params) : params_(params)
    {
        rsr_assert(params_.widthBytes > 0, "bus width must be positive");
        rsr_assert(params_.cpuCyclesPerBusCycle > 0, "bad bus frequency");
    }

    const BusParams &params() const { return params_; }
    const BusStats &stats() const { return stats_; }
    void clearStats() { stats_ = BusStats{}; }

    /** CPU cycles to move @p bytes once granted. */
    std::uint64_t
    transferCycles(unsigned bytes) const
    {
        const unsigned beats =
            (bytes + params_.widthBytes - 1) / params_.widthBytes;
        return std::uint64_t{beats} * params_.cpuCyclesPerBusCycle;
    }

    /**
     * Occupy the bus for a @p bytes transfer requested at CPU cycle
     * @p now; returns the completion cycle.
     */
    std::uint64_t
    occupy(std::uint64_t now, unsigned bytes)
    {
        const std::uint64_t grant = now > nextFree ? now : nextFree;
        const std::uint64_t cycles = transferCycles(bytes);
        stats_.waitCycles += grant - now;
        stats_.busyCycles += cycles;
        ++stats_.transfers;
        nextFree = grant + cycles;
        return nextFree;
    }

    /** Forget all pending occupancy (machine reset). */
    void reset() { nextFree = 0; }

  private:
    BusParams params_;
    BusStats stats_;
    std::uint64_t nextFree = 0;
};

} // namespace rsr::cache

#endif // RSR_CACHE_BUS_HH
