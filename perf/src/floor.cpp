#include "floor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <queue>
#include <stdexcept>
#include <string>

#include "trace.h"

namespace perf {
namespace {

constexpr std::size_t kMessage = 45;  // one wire frame

[[noreturn]] void fail(const char* what) {
    throw std::runtime_error{std::string{"tcp_floor: "} + what + ": " + std::strerror(errno)};
}

void no_delay(int fd) {
    const int one = 1;
    if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) != 0) fail("setsockopt");
}

// Closes the descriptor unless released.
struct fd_guard {
    int fd;
    ~fd_guard() {
        if (fd >= 0) ::close(fd);
    }
};

}  // namespace

bfs_floor::bfs_floor(const mm::net::graph& g) {
    offsets_.push_back(0);
    for (mm::net::node_id v = 0; v < g.node_count(); ++v) {
        for (const mm::net::node_id u : g.neighbors(v)) targets_.push_back(u);
        offsets_.push_back(static_cast<std::int32_t>(targets_.size()));
    }
}

double bfs_floor::seconds_per_search() {
    const auto n = static_cast<std::int32_t>(offsets_.size() - 1);
    const auto at = [](std::vector<std::int32_t>& v, std::int32_t i) -> std::int32_t& {
        return v[static_cast<std::size_t>(i)];
    };
    const std::int64_t start = now_ns();
    int searches = 0;
    // At least 3 searches and 20 ms: a single search of a large network
    // varies by 2x on a busy host.
    while (searches < 3 || now_ns() - start < 20'000'000) {
        row r{std::vector<std::int32_t>(static_cast<std::size_t>(n), -1),
              std::vector<std::int32_t>(static_cast<std::size_t>(n), -1)};
        const std::int32_t root = next_root_;
        next_root_ = (next_root_ + 7919) % n;
        std::queue<std::int32_t> frontier;
        at(r.dist, root) = 0;
        frontier.push(root);
        while (!frontier.empty()) {
            const std::int32_t v = frontier.front();
            frontier.pop();
            for (std::int32_t i = at(offsets_, v); i < at(offsets_, v + 1); ++i) {
                const std::int32_t u = at(targets_, i);
                if (at(r.dist, u) >= 0) continue;
                at(r.dist, u) = at(r.dist, v) + 1;
                at(r.toward, u) = v;
                frontier.push(u);
            }
        }
        kept_.push_back(std::move(r));
        if (kept_.size() > 16) kept_.pop_front();
        ++searches;
    }
    return static_cast<double>(now_ns() - start) / 1e9 / searches;
}

tcp_floor::tcp_floor() {
    fd_guard listener{::socket(AF_INET, SOCK_STREAM, 0)};
    if (listener.fd < 0) fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(listener.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) fail("bind");
    if (::listen(listener.fd, 1) != 0) fail("listen");
    if (::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
        fail("getsockname");
    fd_guard client{::socket(AF_INET, SOCK_STREAM, 0)};
    if (client.fd < 0) fail("socket");
    if (::connect(client.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
        fail("connect");
    fd_guard server{::accept(listener.fd, nullptr, nullptr)};
    if (server.fd < 0) fail("accept");
    no_delay(client.fd);
    no_delay(server.fd);
    client_fd_ = client.fd;
    server_fd_ = server.fd;
    client.fd = server.fd = -1;
    echo_ = std::thread{[this] { echo_loop(); }};
}

tcp_floor::~tcp_floor() {
    stop_.store(true);
    ::shutdown(client_fd_, SHUT_RDWR);
    echo_.join();
    ::close(client_fd_);
    ::close(server_fd_);
}

void tcp_floor::echo_loop() {
    char buf[1 << 14];
    while (!stop_.load(std::memory_order_relaxed)) {
        pollfd p{server_fd_, POLLIN, 0};
        if (::poll(&p, 1, 50) <= 0) continue;
        const ssize_t n = ::recv(server_fd_, buf, sizeof buf, MSG_DONTWAIT);
        if (n == 0) return;  // the client shut down
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
            return;
        }
        for (ssize_t sent = 0; sent < n;) {
            const ssize_t m = ::send(server_fd_, buf + sent, static_cast<std::size_t>(n - sent),
                                     MSG_NOSIGNAL);
            if (m < 0) {
                if (errno == EINTR) continue;
                return;
            }
            sent += m;
        }
    }
}

void tcp_floor::send_one() {
    char msg[kMessage] = {};
    for (std::size_t sent = 0; sent < kMessage;) {
        const ssize_t m = ::send(client_fd_, msg + sent, kMessage - sent, MSG_NOSIGNAL);
        if (m < 0) {
            if (errno == EINTR) continue;
            fail("send");
        }
        sent += static_cast<std::size_t>(m);
    }
}

int tcp_floor::receive() {
    char buf[1 << 14];
    const ssize_t n = ::recv(client_fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0) fail("echo closed");
    if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
        fail("recv");
    }
    partial_ += static_cast<std::size_t>(n);
    const auto whole = static_cast<int>(partial_ / kMessage);
    partial_ %= kMessage;
    return whole;
}

std::vector<double> tcp_floor::round_trips(std::int64_t gap_ns, double seconds) {
    std::vector<double> out;
    const std::int64_t start = now_ns();
    const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t due = start; due < end; due += gap_ns) {
        while (now_ns() < due) {
        }
        send_one();
        while (receive() == 0) {
        }
        out.push_back(static_cast<double>(now_ns() - due) / 1e3);
    }
    return out;
}

double tcp_floor::throughput(int window, double seconds) {
    const std::int64_t start = now_ns();
    const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
    int outstanding = 0;
    std::int64_t done = 0;
    for (;;) {
        const std::int64_t now = now_ns();
        if (now < end) {
            for (; outstanding < window; ++outstanding) send_one();
        } else if (outstanding == 0) {
            break;
        }
        const int got = receive();
        outstanding -= got;
        if (now < end) done += got;
    }
    return static_cast<double>(done) / seconds;
}

}  // namespace perf
