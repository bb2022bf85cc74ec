#include "obs/registry.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <ostream>

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
    return s_ == nullptr ? k_empty : s_->samples;
}

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
        it->second->kind = kind;
    }
    assert(it->second->kind == kind &&
           "metric re-registered under a different kind");
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
        metric_value v;
        v.kind = slot->kind;
        v.flags = slot->flags;
        v.count = slot->count;
        v.level = slot->level;
        v.value = slot->value;
        v.samples = slot->samples;
        out.entries_.emplace_back(name, std::move(v));
    }
    return out;
}

value_block::value_block(std::size_t capacity)
    : slots_(std::make_unique<detail::slot[]>(capacity)),
      capacity_(static_cast<std::uint32_t>(capacity)) {}

detail::slot& value_block::slot_for(const metric_name& /*name*/,
                                    metric_kind kind, std::uint32_t flags) {
    // Checked in every build: registration is assembly-time, and a slot
    // past the allocation would corrupt the heap silently.
    if (size_ == capacity_) {
        std::fprintf(stderr,
                     "obs::value_block: registering past its capacity of"
                     " %u metrics\n",
                     static_cast<unsigned>(capacity_));
        std::abort();
    }
    detail::slot& s = slots_[size_++];
    s.kind = kind;
    s.flags = flags;
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
