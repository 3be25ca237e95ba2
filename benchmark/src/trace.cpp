#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace bench::trace
{

struct Record
{
    const char* name;
    bool layer;
    std::int64_t startNs;
    std::int64_t durNs = -1;
    std::int64_t childNs = 0;
    std::uint64_t parent;
    std::string args;
};

struct ThreadBuffer
{
    int tid = 0;
    std::vector<Record> records;
    /** Indices of the spans open on this thread, innermost last. */
    std::vector<std::size_t> open;
};

namespace
{

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_phase_parent{0};
std::chrono::steady_clock::time_point g_epoch;

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer&
localBuffer()
{
    if (t_buffer == nullptr) {
        auto buffer = std::make_unique<ThreadBuffer>();
        const std::lock_guard<std::mutex> guard(g_registry_mutex);
        buffer->tid = static_cast<int>(g_buffers.size());
        t_buffer = buffer.get();
        g_buffers.push_back(std::move(buffer));
    }
    return *t_buffer;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - g_epoch)
        .count();
}

std::uint64_t
spanId(int tid, std::size_t index)
{
    return (static_cast<std::uint64_t>(tid + 1) << 40) |
           static_cast<std::uint64_t>(index + 1);
}

/** Append `,"key":"value"` (JSON-escaped) to a span's arguments. */
void
appendArg(std::string& args, const char* key, const std::string& value)
{
    args += ",\"";
    args += key;
    args += "\":\"";
    for (const char c : value) {
        if (c == '"' || c == '\\')
            args.push_back('\\');
        args.push_back(c);
    }
    args += '"';
}

} // namespace

void
enable()
{
    g_epoch = std::chrono::steady_clock::now();
    localBuffer(); // the enabling thread registers first: tid 0
    g_enabled.store(true);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setPhaseParent(std::uint64_t id)
{
    g_phase_parent.store(id);
}

void
annotate(std::uint64_t id, const char* key, const std::string& value)
{
    if (id == 0 || t_buffer == nullptr)
        return;
    const auto tid = static_cast<int>(id >> 40) - 1;
    const std::size_t index = (id & ((1ULL << 40) - 1)) - 1;
    if (tid != t_buffer->tid || index >= t_buffer->records.size())
        return;
    appendArg(t_buffer->records[index].args, key, value);
}

Suspend::Suspend() : was_(g_enabled.exchange(false)) {}

Suspend::~Suspend() { g_enabled.store(was_); }

Span::Span(const char* name, bool layer)
{
    if (!enabled())
        return;
    ThreadBuffer& buffer = localBuffer();
    index_ = buffer.records.size();
    const std::uint64_t parent =
        buffer.open.empty() ? g_phase_parent.load()
                            : spanId(buffer.tid, buffer.open.back());
    buffer.records.push_back({name, layer, nowNs(), -1, 0, parent, {}});
    buffer.open.push_back(index_);
    buffer_ = &buffer;
    id_ = spanId(buffer.tid, index_);
}

Span&
Span::arg(const char* key, long long value)
{
    if (buffer_ != nullptr) {
        std::string& args =
            buffer_->records[index_].args;
        args += ",\"";
        args += key;
        args += "\":";
        args += std::to_string(value);
    }
    return *this;
}

Span&
Span::arg(const char* key, const std::string& value)
{
    if (buffer_ != nullptr)
        appendArg(buffer_->records[index_].args,
                  key, value);
    return *this;
}

void
Span::end()
{
    if (buffer_ == nullptr)
        return;
    ThreadBuffer& buffer = *buffer_;
    buffer_ = nullptr;
    Record& record = buffer.records[index_];
    record.durNs = nowNs() - record.startNs;
    // Spans close innermost first (RAII scopes); the parent on this
    // thread loses the child's duration from its self time.
    buffer.open.pop_back();
    if (!buffer.open.empty())
        buffer.records[buffer.open.back()].childNs += record.durNs;
}

std::vector<LayerRow>
layerTable()
{
    std::vector<LayerRow> rows;
    std::map<std::string, std::size_t> slot;
    const std::lock_guard<std::mutex> guard(g_registry_mutex);
    for (const auto& buffer : g_buffers) {
        for (const Record& record : buffer->records) {
            if (!record.layer || record.durNs < 0)
                continue;
            const auto [it, fresh] =
                slot.emplace(record.name, rows.size());
            if (fresh)
                rows.push_back({record.name, 0.0, 0});
            LayerRow& row = rows[it->second];
            row.busySeconds +=
                static_cast<double>(record.durNs - record.childNs) *
                1e-9;
            ++row.calls;
        }
    }
    return rows;
}

bool
writeChrome(const std::string& path, const std::string& workload)
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(file,
                 "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
                 "\"process_name\",\"args\":{\"name\":\"pocolo_bench "
                 "%s\"}}",
                 workload.c_str());
    const std::lock_guard<std::mutex> guard(g_registry_mutex);
    for (const auto& buffer : g_buffers)
        std::fprintf(file,
                     ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":"
                     "\"thread_name\",\"args\":{\"name\":\"%s-%d\"}}",
                     buffer->tid, buffer->tid == 0 ? "driver" : "worker",
                     buffer->tid);
    for (const auto& buffer : g_buffers) {
        for (std::size_t i = 0; i < buffer->records.size(); ++i) {
            const Record& record = buffer->records[i];
            if (record.durNs < 0)
                continue;
            std::fprintf(
                file,
                ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"id\":%llu,\"parent\":%llu,"
                "\"workload\":\"%s\"%s}}",
                record.name, record.layer ? "layer" : "phase",
                buffer->tid, static_cast<double>(record.startNs) * 1e-3,
                static_cast<double>(record.durNs) * 1e-3,
                static_cast<unsigned long long>(spanId(buffer->tid, i)),
                static_cast<unsigned long long>(record.parent),
                workload.c_str(), record.args.c_str());
        }
    }
    std::fprintf(file, "\n]}\n");
    return std::fclose(file) == 0;
}

} // namespace bench::trace
