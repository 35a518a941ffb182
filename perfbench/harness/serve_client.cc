/**
 * @file
 * The serve session of the traced run: launches `mirage serve --socket`,
 * drives it from this one process over at most min(4, nproc) sockets in
 * an open loop at a fixed rate, times every request from when it was
 * due, and checks every response apart from the server.
 *
 * The request pool is a plan file whose item names carry a role prefix:
 * `setup/` (the first request, sent once the socket is up), `hot/`
 * (the small repeated pool: memo hits), `fresh/` (a template re-sent with
 * a new routing seed each time: memo misses) and `lowered/` (lowered
 * within the catalog's coverage; the memo is sized so each recurrence has
 * been evicted). A hot item's CLI reference output sits at `<path>.ref`.
 */

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <random>
#include <thread>

#include "checks.hh"
#include "inproc.hh"
#include "topology/coupling.hh"

extern char **environ;

namespace perfbench {

namespace {

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
    }
    return out + "\"";
}

/** Value of a JSON string starting at the opening quote at `pos`. */
std::string
jsonUnquote(const std::string &s, size_t pos)
{
    std::string out;
    for (size_t i = pos + 1; i < s.size(); ++i) {
        char c = s[i];
        if (c == '"')
            return out;
        if (c == '\\' && i + 1 < s.size()) {
            char e = s[++i];
            out += e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
        } else {
            out += c;
        }
    }
    return out;
}

/** JSON text without whitespace outside strings (CLI pretty -> compact). */
std::string
compactJson(const std::string &s)
{
    std::string out;
    bool in_str = false;
    for (size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (in_str) {
            out += c;
            if (c == '\\' && i + 1 < s.size())
                out += s[++i];
            else if (c == '"')
                in_str = false;
        } else if (c == '"') {
            in_str = true;
            out += c;
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            out += c;
        }
    }
    return out;
}

/** The n-th number following `"key":` in `s` (0-based), or NaN. */
double
numberAfter(const std::string &s, const std::string &key, int nth = 0)
{
    const std::string pat = "\"" + key + "\":";
    size_t pos = 0;
    for (int i = 0; i <= nth; ++i) {
        pos = s.find(pat, i ? pos + 1 : 0);
        if (pos == std::string::npos)
            return std::nan("");
    }
    return std::strtod(s.c_str() + pos + pat.size(), nullptr);
}

std::string
reportOf(const std::string &response)
{
    const size_t pos = response.find("\"report\":");
    if (pos == std::string::npos || response.back() != '}')
        return "";
    return response.substr(pos + 9, response.size() - pos - 10);
}

std::string
qasmOf(const std::string &response)
{
    const size_t pos = response.find("\"qasm\":\"");
    return pos == std::string::npos ? "" : jsonUnquote(response, pos + 7);
}

enum class Role
{
    Setup,
    Hot,
    Fresh,
    Lowered,
};

struct Entry
{
    PlanItem item;
    Role role = Role::Hot;
    std::string qasm;
    std::string ref;      ///< CLI output for hot items
    int expectWeight = -1; ///< qasm-format hot items
    std::vector<std::pair<int, int>> edges;
};

struct Request
{
    int entry = 0;
    int round = 0;
    uint64_t seed = 0;
    double due = 0, sent = 0, done = -1;
    std::string response;
};

/** Offered load of the open loop, requests per second. */
constexpr double kRate = 250;

/** Server pool threads and client connections, each at most nproc. */
int
cores()
{
    return int(std::max(1u, std::thread::hardware_concurrency()));
}

/**
 * Quiet time at the end of each round of the schedule: the client waits
 * for the round's last replies and probes the host's speed, so that no
 * probe runs while a request is in flight. A round that cannot start on
 * time (a slow last reply or probe) moves the rest of the schedule back,
 * so the wait is not charged to its requests.
 */
constexpr double kRoundGapS = 0.03;

std::string
requestLine(const Entry &e, uint64_t id, uint64_t seed)
{
    const PlanItem &it = e.item;
    char opts[512];
    std::snprintf(opts, sizeof opts,
                  "{\"topology\":\"%s\",\"format\":\"%s\",\"trials\":%d,"
                  "\"swapTrials\":%d,\"fwdBwd\":%d,\"seed\":%llu,"
                  "\"vf2\":%s,\"lower\":%s}",
                  it.topology.c_str(), it.format.c_str(), it.trials,
                  it.swapTrials, it.fwdBwd, (unsigned long long)seed,
                  it.vf2 ? "true" : "false", it.lower ? "true" : "false");
    return "{\"op\":\"transpile\",\"id\":" + std::to_string(id) +
           ",\"name\":" + jsonQuote(it.path) + ",\"qasm\":" +
           jsonQuote(e.qasm) + ",\"options\":" + opts + "}\n";
}

class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            if (fd_ >= 0)
                ::close(fd_);
            fd_ = -1;
        }
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool ok() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    void
    send(const std::string &line)
    {
        size_t off = 0;
        while (off < line.size()) {
            ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
            if (n <= 0)
                throw std::runtime_error("serve socket write failed");
            off += size_t(n);
        }
    }
    /** Read what is available; returns complete lines. */
    std::vector<std::string>
    readLines()
    {
        char buf[65536];
        ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n <= 0)
            throw std::runtime_error("serve socket closed");
        buf_.append(buf, size_t(n));
        std::vector<std::string> lines;
        size_t nl;
        while ((nl = buf_.find('\n')) != std::string::npos) {
            lines.push_back(buf_.substr(0, nl));
            buf_.erase(0, nl + 1);
        }
        return lines;
    }
    std::string
    roundTrip(const std::string &line)
    {
        send(line);
        while (true) {
            auto lines = readLines();
            if (!lines.empty())
                return lines.front();
        }
    }

    int busy = -1; ///< request index in flight

  private:
    int fd_ = -1;
    std::string buf_;
};

/** The server process; terminated and reaped on every exit path. */
class Server
{
  public:
    Server(const ServeMixConfig &cfg)
    {
        std::vector<std::string> args = {
            cfg.mirage, "serve", "--socket", cfg.socket,
            "--threads", std::to_string(std::min(cores(), 2)),
            "--cache-entries", "8", "--catalog", cfg.catalog};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
        posix_spawn_file_actions_addopen(&fa, 2, cfg.logFile.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        ::unlink(cfg.socket.c_str());
        const int rc =
            posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot start " + cfg.mirage);
    }
    ~Server()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            wait();
        }
    }
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    int
    wait()
    {
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return status;
    }

  private:
    pid_t pid_ = -1;
};

std::unique_ptr<Conn>
connectRetry(const std::string &path)
{
    const auto t0 = Clock::now();
    while (msSince(t0) < 120000) {
        auto c = std::make_unique<Conn>(path);
        if (c->ok())
            return c;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("serve socket never came up");
}

} // namespace

void
runServeMix(const ServeMixConfig &cfg, Result &res)
{
    std::vector<Entry> entries;
    int setup = -1, fresh = -1;
    std::vector<int> hot, lowered;
    for (PlanItem &it : readPlan(cfg.plan)) {
        Entry e;
        const std::string role = it.name.substr(0, it.name.find('/'));
        e.role = role == "setup"   ? Role::Setup
                 : role == "fresh" ? Role::Fresh
                 : role == "lowered" ? Role::Lowered
                                     : Role::Hot;
        e.qasm = readFile(it.path);
        if (e.role == Role::Hot) {
            e.ref = readFile(it.path + ".ref");
            if (it.format == "json")
                e.ref = compactJson(e.ref);
        }
        if (it.format == "qasm") {
            const QasmCircuit in = parseQasm(e.qasm);
            const BasisOutcome o = basisOutcome(in.qubits, in.ops);
            if (o.probability < 1 - 1e-9)
                throw std::runtime_error(it.name + " is not a mirror input");
            e.expectWeight = o.weight;
            e.edges = mirage::topology::CouplingMap::parseSpec(it.topology,
                                                               in.qubits)
                          .edges();
        }
        e.item = std::move(it);
        const int idx = int(entries.size());
        if (e.role == Role::Setup) setup = idx;
        if (e.role == Role::Fresh) fresh = idx;
        if (e.role == Role::Hot) hot.push_back(idx);
        if (e.role == Role::Lowered) lowered.push_back(idx);
        entries.push_back(std::move(e));
    }
    if (setup < 0 || fresh < 0 || hot.empty() || lowered.size() != 2)
        throw std::runtime_error("serve plan needs setup, fresh, hot and "
                                 "two lowered items");

    // Schedule: whole rounds of ten groups, each group the hot pool (in
    // seeded order) followed by one "other": seven fresh misses, one
    // identical fresh pair sent at the same instant, and the two lowered
    // items.
    std::mt19937_64 rng(cfg.seed);
    std::vector<Request> reqs;
    std::vector<int> pair_first; // request index of each pair's first
    const int per_round = 10 * int(hot.size()) + 7 + 2 + 2;
    const double round_s = double(per_round) / kRate + kRoundGapS;
    const int rounds = std::max(1, int(std::ceil(cfg.seconds / round_s)));
    uint64_t fresh_seed = 1000003 * (cfg.seed % 1000) + 7;
    for (int r = 0; r < rounds; ++r) {
        std::vector<int> others = {0, 0, 0, 0, 0, 0, 0, 1, 2, 3};
        std::shuffle(others.begin(), others.end(), rng);
        for (int o : others) {
            std::vector<int> h = hot;
            std::shuffle(h.begin(), h.end(), rng);
            auto push = [&](int entry, uint64_t seed) {
                Request q;
                q.entry = entry;
                q.round = r;
                q.seed = seed;
                q.due = r * round_s +
                        double(reqs.size() - size_t(r * per_round)) / kRate;
                reqs.push_back(std::move(q));
            };
            for (int e : h)
                push(e, entries[size_t(e)].item.seed);
            if (o == 0) {
                push(fresh, ++fresh_seed);
            } else if (o == 1) {
                ++fresh_seed;
                pair_first.push_back(int(reqs.size()));
                push(fresh, fresh_seed);
                push(fresh, fresh_seed);
                reqs.back().due = reqs[reqs.size() - 2].due;
            } else {
                push(lowered[size_t(o - 2)],
                     entries[size_t(lowered[size_t(o - 2)])].item.seed);
            }
        }
    }

    Server server(cfg);
    std::vector<std::unique_ptr<Conn>> conns;
    conns.push_back(connectRetry(cfg.socket));
    const std::string first = conns[0]->roundTrip(
        requestLine(entries[size_t(setup)], 0, entries[size_t(setup)].item.seed));
    // Scale of each round's latencies: kProbeRefMs over the mean of the
    // probes before and after the round.
    std::vector<double> probes{hostProbeMs()};
    if (first.find("\"ok\":true") == std::string::npos)
        res.fail("serve: set-up request failed: " + first.substr(0, 200));
    for (int i = 1; i < std::min(cores(), 4); ++i)
        conns.push_back(connectRetry(cfg.socket));

    // Open loop.
    const auto t0 = Clock::now();
    auto now_s = [&] { return msSince(t0) / 1000.0; };
    size_t next = 0, completed = 0;
    std::vector<double> lag_ms;
    while (completed < reqs.size()) {
        // Round r may start once probes[r] exists: after the previous
        // round's last reply.
        if (next == completed && next < reqs.size() &&
            reqs[next].round == int(probes.size())) {
            probes.push_back(hostProbeMs());
            const double late = now_s() - reqs[next].due;
            if (late > 0)
                for (size_t i = next; i < reqs.size(); ++i)
                    reqs[i].due += late;
        }
        const bool gated =
            next < reqs.size() && reqs[next].round >= int(probes.size());
        const double now = now_s();
        while (next < reqs.size() && reqs[next].due <= now &&
               reqs[next].round < int(probes.size())) {
            const bool pair = next + 1 < reqs.size() &&
                              reqs[next + 1].due == reqs[next].due;
            std::vector<Conn *> free_conns;
            for (auto &c : conns)
                if (c->busy < 0)
                    free_conns.push_back(c.get());
            if (free_conns.size() < (pair ? 2u : 1u))
                break;
            for (size_t k = 0; k < (pair ? 2u : 1u); ++k) {
                Request &q = reqs[next];
                q.sent = now_s();
                lag_ms.push_back((q.sent - q.due) * 1000.0);
                free_conns[k]->busy = int(next);
                free_conns[k]->send(requestLine(entries[size_t(q.entry)],
                                                next + 1, q.seed));
                ++next;
            }
        }
        std::vector<pollfd> fds;
        std::vector<Conn *> polled;
        for (auto &c : conns)
            if (c->busy >= 0) {
                fds.push_back({c->fd(), POLLIN, 0});
                polled.push_back(c.get());
            }
        int timeout = 20;
        if (next < reqs.size() && polled.size() < conns.size() && !gated)
            timeout = std::max(0, int((reqs[next].due - now_s()) * 1000.0));
        if (fds.empty()) {
            if (timeout > 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(int64_t(
                        std::max(0.0, (reqs[next].due - now_s()) * 1e6))));
            continue;
        }
        if (::poll(fds.data(), fds.size(), timeout) <= 0)
            continue;
        for (size_t k = 0; k < fds.size(); ++k) {
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            for (std::string &line : polled[k]->readLines()) {
                Request &q = reqs[size_t(polled[k]->busy)];
                q.done = now_s();
                q.response = std::move(line);
                polled[k]->busy = -1;
                ++completed;
            }
        }
    }
    probes.push_back(hostProbeMs());
    const std::vector<double> steady = steadyProbes(probes);
    auto scale = [&](const Request &q) {
        return probeScale(steady, size_t(q.round));
    };

    const std::string stats =
        conns[0]->roundTrip("{\"op\":\"stats\",\"id\":\"stats\"}\n");
    conns[0]->roundTrip("{\"op\":\"shutdown\",\"id\":\"bye\"}\n");
    conns.clear();
    const int status = server.wait();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        res.fail("serve: server did not exit cleanly");

    // Checks and metrics.
    std::vector<double> hit_ms, miss_ms;
    std::map<int, std::string> first_out;
    uint64_t hits = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        const Request &q = reqs[i];
        const Entry &e = entries[size_t(q.entry)];
        ++res.attempted;
        if (q.response.find("\"ok\":true") == std::string::npos) {
            ++res.failed;
            res.fail("serve: " + e.item.name + ": " +
                     q.response.substr(0, 200));
            continue;
        }
        const double ms = (q.done - q.due) * 1000.0 * scale(q);
        const bool hit = q.response.find("\"hit\":true") != std::string::npos;
        hits += hit;
        (hit ? hit_ms : miss_ms).push_back(ms);
        const std::string out =
            e.item.format == "qasm" ? qasmOf(q.response) : reportOf(q.response);
        if (e.role == Role::Lowered) {
            if (numberAfter(out, "newFits") != 0)
                res.fail("serve: " + e.item.name + " fitted outside catalog");
            if (numberAfter(out, "depthPulses") !=
                    numberAfter(out, "depthPulses", 1) ||
                numberAfter(out, "totalPulses") !=
                    numberAfter(out, "totalPulses", 1))
                res.fail("serve: " + e.item.name +
                         " estimated pulses != measured pulses");
        }
        if (e.role == Role::Fresh)
            continue;
        auto [it, fresh_entry] = first_out.emplace(q.entry, out);
        if (!fresh_entry) {
            if (out != it->second)
                res.fail("serve: " + e.item.name +
                         " repeat differs from its first response");
            continue;
        }
        if (e.role == Role::Hot && out != e.ref)
            res.fail("serve: " + e.item.name +
                     " differs from the one-shot CLI output");
        if (e.item.format == "qasm") {
            const QasmCircuit c = parseQasm(out);
            if (edgeViolations(c.ops, edgeSet(e.edges)))
                res.fail("serve: " + e.item.name + " gate off device edges");
            const BasisOutcome o = basisOutcome(c.qubits, c.ops);
            if (o.probability < 1 - 1e-6 || o.weight != e.expectWeight)
                res.fail("serve: " + e.item.name +
                         " does not end in a basis state of weight " +
                         std::to_string(e.expectWeight));
        }
    }
    for (int p : pair_first)
        if (reportOf(reqs[size_t(p)].response) !=
            reportOf(reqs[size_t(p) + 1].response))
            res.fail("serve: coalesced pair answered differently");
    // Every transpile request sent (the set-up one too) is a memo hit, a
    // miss, or coalesced onto an identical in-flight miss.
    const double answered = numberAfter(stats, "cacheHits") +
                            numberAfter(stats, "cacheMisses") +
                            numberAfter(stats, "coalesced");
    if (answered != double(reqs.size() + 1))
        res.fail("serve: stats hits + misses + coalesced " +
                 std::to_string(answered) + " != requests sent " +
                 std::to_string(reqs.size() + 1));

    res.set("serve.hit_latency_p50_ms", quantile(hit_ms, 0.5), "ms");
    res.set("serve.miss_latency_p50_ms", quantile(miss_ms, 0.5), "ms");
    res.set("serve.hit_ratio", double(hits) / double(reqs.size()), "ratio");
    res.set("serve.coalesced", numberAfter(stats, "coalesced"), "count");
    res.set("serve.batches", numberAfter(stats, "batches"), "count");
    res.set("serve.max_batch", numberAfter(stats, "maxBatchSize"), "count");
    res.set("serve.generator_lag_ms", quantile(lag_ms, 0.5), "ms");
}

} // namespace perfbench
