/**
 * @file
 * In-memory span recorder of the traced run.
 *
 * Spans are recorded by the benchmark around its calls into each
 * layer (nothing inside src/ is instrumented). Each span keeps its
 * layer name, start and end (ns since the recorder started) and the
 * index of its parent span; the recorder writes them out as CSV when
 * the run ends. With tracing off, Span construction is a branch.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

class Tracer
{
  public:
    /** Spans kept in memory. Later spans are counted, not stored,
     *  and a run that drops any fails. */
    static constexpr size_t kMaxSpans = 1u << 19;

    static Tracer &instance();

    void enable(bool on);
    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (or -1 when not recorded). */
    int32_t open(const char *layer);

    /** Close span @p id (no-op for -1). */
    void close(int32_t id);

    /** Spans recorded and spans dropped past kMaxSpans. */
    size_t recorded() const { return spans_.size(); }
    uint64_t dropped() const { return dropped_; }

    /** Write id,parent,layer,start_ns,end_ns rows; false on I/O error. */
    bool writeCsv(const std::string &path) const;

  private:
    struct SpanRec
    {
        const char *layer;
        int32_t parent;
        int64_t start_ns;
        int64_t end_ns;
    };

    Tracer();
    int64_t nowNs() const;

    bool enabled_ = false;
    Clock::time_point origin_;
    std::vector<SpanRec> spans_;
    std::vector<int32_t> stack_;
    uint64_t dropped_ = 0;
};

/** RAII span around one call into a layer. */
class Span
{
  public:
    explicit Span(const char *layer)
        : id_(Tracer::instance().enabled()
                  ? Tracer::instance().open(layer)
                  : -1)
    {}
    ~Span()
    {
        if (id_ >= 0)
            Tracer::instance().close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
