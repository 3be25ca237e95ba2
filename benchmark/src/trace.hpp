/**
 * @file
 * Span recording for the benchmark's traced runs.
 *
 * Spans are opened from the benchmark's own files around calls into
 * the library's layers. Each thread records into its own buffer;
 * nothing is shared while spans are open, and the driver thread
 * reads the buffers only after the pool tasks that wrote them were
 * joined.
 * When tracing is off (the untraced run that yields the end-to-end
 * metrics) a Span costs one branch.
 *
 * A span's parent is the innermost span open on the same thread, or
 * failing that the phase span the driver thread published with
 * setPhaseParent() (pool tasks run on other threads). A layer's busy
 * time is the sum of its spans' self time: duration minus the child
 * spans nested inside it on the same thread.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace bench::trace
{

struct ThreadBuffer;

/** Turn recording on; the calling thread becomes the "driver". */
void enable();
bool enabled();

/** Parent for spans opened on a thread with no open span. */
void setPhaseParent(std::uint64_t id);

/**
 * Add an argument to a closed span recorded by the calling thread
 * (e.g. the solver tier of an event, known only once the replay
 * finished).
 */
void annotate(std::uint64_t id, const char* key, const std::string& value);

/** Scope in which no spans are recorded (the traced run's untraced
 *  baseline pass). */
class Suspend
{
  public:
    Suspend();
    ~Suspend();
    Suspend(const Suspend&) = delete;
    Suspend& operator=(const Suspend&) = delete;

  private:
    bool was_;
};

/** RAII span; records nothing unless tracing is enabled. */
class Span
{
  public:
    /**
     * @param name Static string; names with a layer prefix
     *        ("model.", "server.", ...) feed the layer table.
     * @param layer False for phase/wrapper spans that only group
     *        others and must not count as layer busy time.
     */
    explicit Span(const char* name, bool layer = true);
    ~Span() { end(); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    Span& arg(const char* key, long long value);
    Span& arg(const char* key, const std::string& value);

    /** Stable span id (0 when tracing is off). */
    std::uint64_t id() const { return id_; }

    /** Close the span now (idempotent). */
    void end();

  private:
    ThreadBuffer* buffer_ = nullptr;
    std::size_t index_ = 0;
    std::uint64_t id_ = 0;
};

/** Self time and span count per layer name, in first-seen order. */
std::vector<LayerRow> layerTable();

/**
 * Write every recorded span as Chrome trace-event JSON (complete
 * "X" events plus thread-name metadata), loadable offline in
 * Perfetto or chrome://tracing.
 */
bool writeChrome(const std::string& path, const std::string& workload);

} // namespace bench::trace
