#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Tracer() : origin_(Clock::now()) {}

void
Tracer::enable(bool on)
{
    enabled_ = on;
    if (on && spans_.capacity() == 0)
        spans_.reserve(kMaxSpans);
}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int32_t
Tracer::open(const char *layer)
{
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return -1;
    }
    int32_t id = static_cast<int32_t>(spans_.size());
    int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(SpanRec{layer, parent, nowNs(), -1});
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int32_t id)
{
    spans_[static_cast<size_t>(id)].end_ns = nowNs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

bool
Tracer::writeCsv(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id,parent,layer,start_ns,end_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        std::fprintf(f, "%zu,%d,%s,%lld,%lld\n", i, s.parent, s.layer,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
