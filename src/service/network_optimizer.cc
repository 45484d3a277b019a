#include "service/network_optimizer.hh"

#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "common/string_util.hh"
#include "common/table.hh"
#include "common/timer.hh"
#include "model/multi_level.hh"

namespace mopt {

double
NetworkPlanStats::hitRate() const
{
    if (unique_shapes == 0)
        return 1.0;
    return static_cast<double>(cache_hits) /
           static_cast<double>(unique_shapes);
}

double
NetworkPlan::predictedSeconds() const
{
    double s = 0.0;
    for (const LayerPlan &lp : layers)
        s += lp.best.predicted.total_seconds;
    return s;
}

std::string
NetworkPlan::str() const
{
    Table t({"Layer", "shape", "class", "L1 tile", "L2 tile", "L3 tile",
             "par", "pred ms", "pred GFLOPS"});
    for (const LayerPlan &lp : layers) {
        const ConvProblem &p = lp.problem;
        std::string shape;
        if (p.n > 1) {
            appendInt(shape, "N", p.n);
            shape += ' ';
        }
        appendInt(shape, "K", p.k);
        appendInt(shape, " C", p.c);
        appendInt(shape, " H", p.h);
        appendInt(shape, " R", p.r);
        if (p.stride > 1)
            appendInt(shape, "/", p.stride);
        if (p.groups > 1)
            appendInt(shape, " g", p.groups);
        t.row()
            .add(p.name)
            .add(std::move(shape))
            .add(lp.best.perm_label)
            .add(tilesToString(lp.best.config.tiles[LvlL1]))
            .add(tilesToString(lp.best.config.tiles[LvlL2]))
            .add(tilesToString(lp.best.config.tiles[LvlL3]))
            .add(tilesToString(lp.best.config.par))
            .add(lp.best.predicted.total_seconds * 1e3, 3)
            .add(lp.best.predicted.gflops, 1);
    }
    return t.str();
}

std::vector<LayerGroup>
groupByKey(const std::vector<ConvProblem> &net, std::uint64_t machine_fp,
           std::uint64_t settings_fp)
{
    std::vector<LayerGroup> groups;
    std::unordered_map<CacheKey, std::size_t> group_of; // Into groups.
    for (std::size_t i = 0; i < net.size(); ++i) {
        net[i].validate();
        const CacheKey key = CacheKey::make(net[i], machine_fp, settings_fp);
        const auto [it, fresh] = group_of.try_emplace(key, groups.size());
        if (fresh)
            groups.push_back(LayerGroup{key, {i}});
        else
            groups[it->second].layers.push_back(i);
    }
    return groups;
}

void
replayCandidate(const std::vector<ConvProblem> &net, const LayerGroup &g,
                const CachedSolution &sol, bool cache_hit,
                double solve_seconds, const MachineSpec &machine,
                const OptimizerOptions &opts, NetworkPlan &plan)
{
    Candidate best;
    best.config = sol.config;
    best.perm_label = sol.perm_label;
    // Pure function of (config, problem, machine): identical numbers
    // whether the group hit, coalesced, solved, or came over the wire.
    best.predicted = evalMultiLevel(best.config, net[g.layers.front()],
                                    machine, opts.parallel);
    for (std::size_t li = 0; li < g.layers.size(); ++li) {
        const std::size_t layer = g.layers[li];
        LayerPlan &lp = plan.layers[layer];
        lp.problem = net[layer];
        lp.best = best;
        lp.cache_hit = cache_hit;
        lp.dedup_hit = li > 0;
        lp.solve_seconds = li == 0 ? solve_seconds : 0.0;
    }
    if (cache_hit)
        plan.stats.cache_hits++;
    else
        plan.stats.cache_misses++;
}

NetworkOptimizer::NetworkOptimizer(const MachineSpec &machine,
                                   const OptimizerOptions &opts,
                                   SolutionCache *cache,
                                   SolveScheduler *scheduler)
    : machine_(machine), opts_(opts), scheduler_(scheduler)
{
    machine_.validate();
    if (!scheduler_) {
        owned_scheduler_ =
            std::make_unique<SolveScheduler>(machine_, opts_, cache);
        scheduler_ = owned_scheduler_.get();
    }
    // A scheduler built from different settings would cache and
    // coalesce under keys this optimizer never looks up.
    checkUser(scheduler_->machineFingerprint() ==
                      CacheKey::machineFingerprint(machine_) &&
                  scheduler_->settingsFingerprint() ==
                      CacheKey::settingsFingerprint(opts_),
              "NetworkOptimizer: scheduler was built for a "
              "different machine or settings");
}

NetworkPlan
NetworkOptimizer::optimize(const std::vector<ConvProblem> &net,
                           Deadline dl) const
{
    Timer total;
    NetworkPlan plan;
    plan.layers.resize(net.size());
    plan.stats.layers = net.size();

    const std::vector<LayerGroup> groups =
        groupByKey(net, scheduler_->machineFingerprint(),
                   scheduler_->settingsFingerprint());
    plan.stats.unique_shapes = groups.size();

    // Submit every group up front so distinct cold shapes overlap
    // across the scheduler's concurrency budget (and duplicates
    // coalesce with any concurrent request for the same shape), then
    // join in network order. Each solve's result is width-independent,
    // so the plan is byte-identical for any budget.
    std::vector<SolveTicket> tickets;
    tickets.reserve(groups.size());
    for (const LayerGroup &g : groups)
        tickets.push_back(scheduler_->submit(net[g.layers.front()]));
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        ScheduledSolve r;
        if (!tickets[gi].waitFor(dl, r)) {
            // The remaining flights keep running and will land in the
            // cache; only this caller's answer is abandoned.
            throw DeadlineExceeded(
                "network solve ran past its deadline (" +
                std::to_string(groups.size() - gi) + " of " +
                std::to_string(groups.size()) +
                " shapes still outstanding)");
        }
        // Hits and coalesced joins report zero cost; only paid solves
        // add to it.
        if (r.coalesced)
            plan.stats.coalesced++;
        plan.stats.solver_evals += r.solver_evals;
        plan.stats.solve_seconds += r.solve_seconds;
        replayCandidate(net, groups[gi], r.sol, r.cache_hit,
                        r.solve_seconds, machine_, opts_, plan);
    }
    plan.stats.peak_concurrency = scheduler_->stats().peak_concurrency;

    plan.stats.total_seconds = total.seconds();
    return plan;
}

} // namespace mopt
