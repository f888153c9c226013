// floor.h - in-run references that the end-to-end metrics are divided by.
//
// The host this benchmark was calibrated on is a shared VM whose speed
// drifts by 20-30% from one minute to the next, in every workload at once.
// Each run therefore also times a bare reference of the same kind of work,
// interleaved with the measurement, and the end-to-end metrics are the
// ratio of the two: a code change moves the numerator only, machine drift
// moves both.  No library code runs inside a reference, so no change to the
// repository can move one.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "net/graph.h"

namespace perf {

// A breadth-first search over a private copy of a network's adjacency, done
// the way a routing-row build is (the simulator's dominant kernel): each
// search fills freshly allocated distance and predecessor arrays through a
// std::queue, and the last few rows stay allocated, so allocation and
// first-touch costs drift with the host as the real builds' do.  (Timing
// the same search into reused arrays tracked the workloads less well.)
class bfs_floor {
public:
    explicit bfs_floor(const mm::net::graph& g);

    // Seconds per search, averaged over at least 3 searches and 20 ms, from
    // rotating roots.
    [[nodiscard]] double seconds_per_search();

private:
    struct row {
        std::vector<std::int32_t> dist, toward;
    };

    std::vector<std::int32_t> offsets_;
    std::vector<std::int32_t> targets_;
    std::deque<row> kept_;  // the most recent rows
    std::int32_t next_root_ = 0;
};

// A bare loopback TCP echo with the daemon's thread shape: an echo thread
// blocked in poll(2) between bursts, and a client that spins on
// non-blocking reads.
class tcp_floor {
public:
    // Listens on an ephemeral 127.0.0.1 port, connects, starts the echo
    // thread.  Throws std::runtime_error when a socket call fails.
    tcp_floor();
    ~tcp_floor();
    tcp_floor(const tcp_floor&) = delete;
    tcp_floor& operator=(const tcp_floor&) = delete;

    // One 45-byte message at a time, every `gap_ns`, for `seconds`:
    // round-trip times in microseconds.
    std::vector<double> round_trips(std::int64_t gap_ns, double seconds);
    // `window` messages kept outstanding for `seconds`: echoes per second.
    double throughput(int window, double seconds);

private:
    void echo_loop();
    void send_one();
    // Reads what is available; returns how many whole echoes arrived.
    int receive();

    int client_fd_ = -1;
    int server_fd_ = -1;
    std::size_t partial_ = 0;  // bytes of an echo received so far
    std::atomic<bool> stop_{false};
    std::thread echo_;
};

}  // namespace perf
