/**
 * @file
 * SoA min-heap of pending fills, ordered by (readyCycle, seq).
 *
 * Backs MemorySystem's per-SM fill lanes. The three fields live in
 * parallel arrays so the frequent operations — the per-cycle ready peek
 * and the sift on push/pop — touch dense uint64 lanes instead of moving
 * 24-byte structs. Capacity is retained across frames, so steady-state
 * pushes never allocate (docs/SIMULATOR.md, "Data layout of the hot
 * path").
 *
 * Fill ready cycles are genuinely non-monotone (an L2 hit responds
 * after l2LatencyCycles while a DRAM completion responds the next
 * cycle), so unlike the L1 hit FIFO this must stay a priority queue.
 * The delivery-sequence tie-break makes (readyCycle, seq) a total
 * order, so fills drain in an order that depends on delivery order
 * only, not on the heap's push/pop history.
 */

#ifndef ZATEL_GPUSIM_FILL_HEAP_HH
#define ZATEL_GPUSIM_FILL_HEAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace zatel::gpusim
{

class FillHeap
{
  public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Ready cycle of the earliest fill. @pre !empty() */
    uint64_t topReady() const { return ready_[0]; }

    /** Line address of the earliest fill. @pre !empty() */
    uint64_t topAddr() const { return addr_[0]; }

    void
    push(uint64_t ready_cycle, uint64_t line_addr, uint64_t seq)
    {
        if (size_ == ready_.size()) {
            size_t cap = size_ == 0 ? 64 : size_ * 2;
            ready_.resize(cap);
            addr_.resize(cap);
            seq_.resize(cap);
        }
        size_t i = size_++;
        ready_[i] = ready_cycle;
        addr_[i] = line_addr;
        seq_[i] = seq;
        siftUp(i);
    }

    void
    pop()
    {
        --size_;
        if (size_ == 0)
            return;
        ready_[0] = ready_[size_];
        addr_[0] = addr_[size_];
        seq_[0] = seq_[size_];
        siftDown(0);
    }

  private:
    bool
    less(size_t a, size_t b) const
    {
        if (ready_[a] != ready_[b])
            return ready_[a] < ready_[b];
        return seq_[a] < seq_[b];
    }

    void
    swapAt(size_t a, size_t b)
    {
        std::swap(ready_[a], ready_[b]);
        std::swap(addr_[a], addr_[b]);
        std::swap(seq_[a], seq_[b]);
    }

    void
    siftUp(size_t i)
    {
        while (i > 0) {
            size_t parent = (i - 1) / 2;
            if (!less(i, parent))
                break;
            swapAt(i, parent);
            i = parent;
        }
    }

    void
    siftDown(size_t i)
    {
        for (;;) {
            size_t left = 2 * i + 1;
            if (left >= size_)
                break;
            size_t best = left;
            size_t right = left + 1;
            if (right < size_ && less(right, left))
                best = right;
            if (!less(best, i))
                break;
            swapAt(i, best);
            i = best;
        }
    }

    std::vector<uint64_t> ready_;
    std::vector<uint64_t> addr_;
    std::vector<uint64_t> seq_;
    size_t size_ = 0;
};

} // namespace zatel::gpusim

#endif // ZATEL_GPUSIM_FILL_HEAP_HH
