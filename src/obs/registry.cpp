#include "obs/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <type_traits>

namespace bluescale::obs {

const char* metric_kind_name(metric_kind k) {
    switch (k) {
    case metric_kind::counter: return "counter";
    case metric_kind::gauge: return "gauge";
    case metric_kind::real: return "real";
    case metric_kind::sample: return "sample";
    }
    return "?";
}

const stats::sample_set& sample::values() const {
    static const stats::sample_set k_empty;
    return s_ == nullptr ? k_empty : *s_;
}

namespace {

/// Makes `s` a zero-valued metric of `kind`: the value word's member that
/// kind's handle uses becomes the active one, and a sample slot points at
/// `samples`.
void start_slot(detail::slot& s, metric_kind kind, std::uint32_t flags,
                stats::sample_set* samples) {
    s.kind = kind;
    s.flags = flags;
    switch (kind) {
    case metric_kind::counter: s.count = 0; break;
    case metric_kind::gauge: s.level = 0; break;
    case metric_kind::real: s.value = 0.0; break;
    case metric_kind::sample: s.samples = samples; break;
    }
}

[[noreturn]] void past_capacity(std::uint32_t capacity, const char* what) {
    std::fprintf(stderr,
                 "obs::value_block: registering past its capacity of %u %s"
                 "metrics\n",
                 static_cast<unsigned>(capacity), what);
    std::abort();
}

/// `s`'s value, copied by kind.
metric_value read_slot(const detail::slot& s) {
    metric_value v;
    v.kind = s.kind;
    v.flags = s.flags;
    switch (s.kind) {
    case metric_kind::counter: v.count = s.count; break;
    case metric_kind::gauge: v.level = s.level; break;
    case metric_kind::real: v.value = s.value; break;
    case metric_kind::sample: v.samples = *s.samples; break;
    }
    return v;
}

} // namespace

std::string metric_name::joined() const {
    std::size_t n = 0;
    for (const std::string_view p : parts_) n += p.size();
    std::string out;
    out.reserve(n);
    for (const std::string_view p : parts_) out += p;
    return out;
}

detail::slot& registry::slot_for(const metric_name& name, metric_kind kind,
                                 std::uint32_t flags) {
    const auto [it, inserted] = index_.try_emplace(name.joined());
    if (inserted) {
        it->second = &slots_.emplace_back();
        start_slot(*it->second, kind, 0,
                   kind == metric_kind::sample ? &samples_.emplace_back()
                                               : nullptr);
    }
    // Checked in every build: a sample handle made from a scalar slot
    // would read its value word as a pointer.
    if (it->second->kind != kind) {
        std::fprintf(stderr,
                     "obs::registry: metric %s re-registered as a %s (was"
                     " a %s)\n",
                     it->first.c_str(), metric_kind_name(kind),
                     metric_kind_name(it->second->kind));
        std::abort();
    }
    it->second->flags |= flags;
    return *it->second;
}

snapshot registry::take_snapshot(bool include_profile) const {
    for (const sync_hook& h : sync_) h.fn(h.ctx);
    snapshot out;
    out.entries_.reserve(index_.size());
    for (const auto& [name, slot] : index_) {
        if (!include_profile && (slot->flags & k_metric_profile) != 0) {
            continue;
        }
        out.entries_.emplace_back(name, read_slot(*slot));
    }
    return out;
}

snapshot registry::take_prefix(std::string_view prefix, bool samples) const {
    for (const sync_hook& h : sync_) h.fn(h.ctx);
    snapshot out;
    for (auto it = index_.lower_bound(prefix);
         it != index_.end() && it->first.starts_with(prefix); ++it) {
        const detail::slot& s = *it->second;
        if ((s.flags & k_metric_profile) != 0 ||
            (!samples && s.kind == metric_kind::sample)) {
            continue;
        }
        out.entries_.emplace_back(it->first, read_slot(s));
    }
    return out;
}

value_block::value_block(std::size_t capacity, std::size_t samples)
    : slots_(nullptr, layout{static_cast<std::uint32_t>(capacity),
                             static_cast<std::uint32_t>(samples)}) {
    static_assert(alignof(stats::sample_set) <= alignof(detail::slot) &&
                      sizeof(detail::slot) % alignof(stats::sample_set) == 0,
                  "the sample sets after the slots must start aligned");
    auto* block = static_cast<detail::slot*>(
        ::operator new(capacity * sizeof(detail::slot) +
                       samples * sizeof(stats::sample_set)));
    std::uninitialized_default_construct_n(block, capacity);
    std::uninitialized_default_construct_n(slots_.get_deleter().sets(block),
                                           samples);
    slots_.reset(block);
}

void value_block::layout::operator()(detail::slot* block) const {
    static_assert(std::is_trivially_destructible_v<detail::slot>,
                  "the block frees its slots without destroying them");
    std::destroy_n(sets(block), samples);
    ::operator delete(block);
}

detail::slot& value_block::slot_for(const metric_name& /*name*/,
                                    metric_kind kind, std::uint32_t flags) {
    // Checked in every build: registration is assembly-time, and a slot
    // or set past the allocation would corrupt the heap silently.
    const layout& at = slots_.get_deleter();
    const bool is_sample = kind == metric_kind::sample;
    if (size_ == at.capacity) past_capacity(at.capacity, "");
    if (is_sample && samples_used_ == at.samples) {
        past_capacity(at.samples, "sample ");
    }
    detail::slot& s = slots_.get()[size_++];
    start_slot(s, kind, flags,
               is_sample ? at.sets(slots_.get()) + samples_used_++ : nullptr);
    return s;
}

const metric_value* snapshot::find(std::string_view name) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const entry& e, std::string_view n) { return e.first < n; });
    if (it == entries_.end() || it->first != name) return nullptr;
    return &it->second;
}

const metric_value& snapshot::get(std::string_view name) const {
    static const metric_value k_absent;
    const metric_value* v = find(name);
    return v == nullptr ? k_absent : *v;
}

void snapshot::merge(const snapshot& other) {
    // Both entry lists are name-sorted: a single linear merge keeps the
    // result sorted and appends other's samples after this one's --
    // exactly the order a serial trial loop would have produced.
    std::vector<entry> merged;
    merged.reserve(entries_.size() + other.entries_.size());
    auto a = entries_.begin();
    auto b = other.entries_.begin();
    while (a != entries_.end() || b != other.entries_.end()) {
        if (b == other.entries_.end() ||
            (a != entries_.end() && a->first < b->first)) {
            merged.push_back(std::move(*a++));
        } else if (a == entries_.end() || b->first < a->first) {
            merged.push_back(*b++);
        } else {
            entry e = std::move(*a++);
            const metric_value& add = (b++)->second;
            e.second.count += add.count;
            e.second.level += add.level;
            e.second.value += add.value;
            e.second.samples.merge(add.samples);
            merged.push_back(std::move(e));
        }
    }
    entries_ = std::move(merged);
}

snapshot snapshot::diff(const snapshot& base) const {
    snapshot out;
    out.entries_.reserve(entries_.size());
    for (const entry& e : entries_) {
        entry d = e;
        if (const metric_value* b = base.find(e.first); b != nullptr) {
            d.second.count -= b->count;
            d.second.level -= b->level;
            d.second.value -= b->value;
            // sample_set appends only, so the delta is the tail beyond
            // base's count.
            const auto& all = e.second.samples.samples();
            const auto skip = static_cast<std::size_t>(
                std::min<std::uint64_t>(b->samples.count(), all.size()));
            stats::sample_set tail;
            for (std::size_t i = skip; i < all.size(); ++i) {
                tail.add(all[i]);
            }
            d.second.samples = std::move(tail);
        }
        out.entries_.push_back(std::move(d));
    }
    return out;
}

snapshot snapshot::profile_only() const {
    snapshot out;
    for (const entry& e : entries_) {
        if ((e.second.flags & k_metric_profile) != 0) {
            out.entries_.push_back(e);
        }
    }
    return out;
}

std::string format_metric_cell(const metric_value& v) {
    switch (v.kind) {
    case metric_kind::counter: return std::to_string(v.count);
    case metric_kind::gauge: return std::to_string(v.level);
    case metric_kind::real: return std::to_string(v.value);
    case metric_kind::sample: return std::to_string(v.samples.mean());
    }
    return "0";
}

namespace {

std::string format_sample_stat(const stats::sample_set& s,
                               std::string_view stat) {
    if (stat == "mean") return std::to_string(s.mean());
    if (stat == "sd") return std::to_string(s.stddev());
    if (stat == "min") return std::to_string(s.min());
    if (stat == "max") return std::to_string(s.max());
    if (stat == "p50") return std::to_string(s.percentile(50.0));
    if (stat == "p99") return std::to_string(s.percentile(99.0));
    if (stat == "count") return std::to_string(s.count());
    return "0";
}

} // namespace

std::vector<std::string>
metric_cells(const snapshot& snap, const std::vector<std::string>& names) {
    std::vector<std::string> cells;
    cells.reserve(names.size());
    for (const auto& name : names) {
        std::string_view base = name;
        std::string_view stat;
        if (const auto pos = name.rfind(':'); pos != std::string::npos) {
            base = std::string_view(name).substr(0, pos);
            stat = std::string_view(name).substr(pos + 1);
        }
        const metric_value* v = snap.find(base);
        if (v == nullptr) {
            cells.emplace_back("0");
        } else if (stat.empty()) {
            cells.push_back(format_metric_cell(*v));
        } else {
            cells.push_back(format_sample_stat(v->samples, stat));
        }
    }
    return cells;
}

void snapshot::write_csv(std::ostream& os, std::string_view name_prefix,
                         bool header) const {
    if (header) {
        os << "metric,kind,value,count,mean,min,max,p50,p99\n";
    }
    for (const entry& e : entries_) {
        const metric_value& v = e.second;
        os << name_prefix << e.first << ',' << metric_kind_name(v.kind)
           << ',';
        switch (v.kind) {
        case metric_kind::counter:
            os << std::to_string(v.count) << ",,,,,,";
            break;
        case metric_kind::gauge:
            os << std::to_string(v.level) << ",,,,,,";
            break;
        case metric_kind::real:
            os << std::to_string(v.value) << ",,,,,,";
            break;
        case metric_kind::sample: {
            const stats::sample_set& s = v.samples;
            os << ',' << std::to_string(s.count()) << ','
               << std::to_string(s.mean()) << ','
               << std::to_string(s.min()) << ','
               << std::to_string(s.max()) << ','
               << std::to_string(s.percentile(50.0)) << ','
               << std::to_string(s.percentile(99.0));
            break;
        }
        }
        os << '\n';
    }
}

} // namespace bluescale::obs
