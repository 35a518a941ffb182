/**
 * @file
 * In-memory spans recorded by the benchmark around calls into the
 * program's stage functions, written at the end as Chrome trace-event
 * JSON (loadable by Perfetto / chrome://tracing).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench {

class Recorder
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0;
        double durUs = 0;
        int parent = -1;
        int request = -1;
    };

    Recorder() : epoch_(Clock::now()) {}

    int
    begin(const std::string &name, int request)
    {
        Span s;
        s.name = name;
        s.startUs = nowUs();
        s.parent = open_.empty() ? -1 : open_.back();
        s.request = request;
        spans_.push_back(std::move(s));
        open_.push_back(int(spans_.size()) - 1);
        return open_.back();
    }

    double
    end(int id)
    {
        Span &s = spans_[size_t(id)];
        s.durUs = nowUs() - s.startUs;
        open_.pop_back();
        totalsMs_[s.name] += s.durUs / 1000.0;
        return s.durUs / 1000.0;
    }

    /** Summed duration of every span with this name. */
    double
    totalMs(const std::string &name) const
    {
        auto it = totalsMs_.find(name);
        return it == totalsMs_.end() ? 0.0 : it->second;
    }


    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[512];
            std::snprintf(buf, sizeof buf,
                          "{\"name\": \"%s\", \"cat\": \"perfbench\", "
                          "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                          "\"pid\": 1, \"tid\": 1, \"args\": {\"id\": %zu, "
                          "\"parent\": %d, \"request\": %d}}%s\n",
                          s.name.c_str(), s.startUs, s.durUs, i, s.parent,
                          s.request, i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch_)
            .count();
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<std::string, double> totalsMs_;
};

/** RAII span; a null recorder records nothing. */
class Scope
{
  public:
    Scope(Recorder *rec, const char *name, int request)
        : rec_(rec), id_(rec ? rec->begin(name, request) : -1)
    {}
    ~Scope()
    {
        if (rec_)
            rec_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Recorder *rec_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
