/**
 * @file
 * Cross-file mutex-acquisition-order graph for the lock-order rule.
 *
 * Nodes are mutex identities ("JobPipeline::jobsMutex_",
 * "LoopState::mutex", "logging.cc::logMutex"); a directed edge A -> B
 * records that somewhere in the tree B was acquired while A was held.
 * Edges from every translation unit merge into one graph, so an
 * inversion split across two files (A then B in one, B then A in the
 * other) still closes a cycle. Any strongly connected component --
 * including a self-edge, i.e. re-acquiring a held non-recursive mutex
 * -- is deadlock potential and is reported at each participating
 * acquisition site.
 */

#ifndef ZATEL_ANALYSIS_LOCK_GRAPH_HH
#define ZATEL_ANALYSIS_LOCK_GRAPH_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace zatel::analysis
{

struct LockSite
{
    std::string file;     ///< relPath of the acquisition.
    size_t line = 0;      ///< 1-based line of the inner acquisition.
    std::string function; ///< Enclosing function ("C::f" or "f").
};

struct LockEdge
{
    std::string from; ///< Held mutex identity.
    std::string to;   ///< Acquired-while-held mutex identity.
    std::vector<LockSite> sites; ///< Every site creating this edge.
};

class LockGraph
{
  public:
    /** Record "to acquired while from held" at @p site. */
    void addEdge(const std::string &from, const std::string &to,
                 const LockSite &site);

    /** A set of edges forming one deadlock-capable component. The node
     *  list is the cycle path (first node repeated implicitly). */
    struct Cycle
    {
        std::vector<std::string> nodes;
        std::vector<LockEdge> edges; ///< All intra-component edges.
    };

    /** Edges A -> A (recursive acquisition of a held mutex). */
    std::vector<LockEdge> selfEdges() const;

    /** Multi-node cycles, deterministically ordered. */
    std::vector<Cycle> cycles() const;

    /** All recorded edges, sorted by (from, to). */
    std::vector<LockEdge> edges() const;

  private:
    std::map<std::pair<std::string, std::string>, std::vector<LockSite>>
        edges_;
};

} // namespace zatel::analysis

#endif // ZATEL_ANALYSIS_LOCK_GRAPH_HH
