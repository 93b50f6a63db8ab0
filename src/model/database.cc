#include "src/model/database.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/model/term_dict.h"
#include "src/obs/metrics.h"
#include "src/obs/stats.h"

namespace vqldb {

namespace {

// Deduplicates-and-sorts a base-id list into canonical form.
std::vector<ObjectId> Canonical(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

Result<ObjectId> VideoDatabase::NewObject(const std::string& symbol,
                                          ObjectKind kind) {
  if (!symbol.empty() && symbols_.count(symbol)) {
    return Status::AlreadyExists("symbol " + symbol + " is already bound");
  }
  ObjectId id{next_id_++};
  objects_.emplace(id, VideoObject(id));
  kinds_.emplace(id, kind);
  switch (kind) {
    case ObjectKind::kEntity:
      entities_.push_back(id);
      break;
    case ObjectKind::kBaseInterval:
      base_intervals_.push_back(id);
      break;
    case ObjectKind::kDerivedInterval:
      derived_intervals_.push_back(id);
      break;
  }
  if (!symbol.empty()) {
    symbols_.emplace(symbol, id);
    symbol_of_.emplace(id, symbol);
  }
  ++epoch_;
  return id;
}

Result<ObjectId> VideoDatabase::CreateEntity(const std::string& symbol) {
  return NewObject(symbol, ObjectKind::kEntity);
}

Result<ObjectId> VideoDatabase::CreateInterval(const std::string& symbol,
                                               IntervalSet duration) {
  VQLDB_ASSIGN_OR_RETURN(ObjectId id,
                         NewObject(symbol, ObjectKind::kBaseInterval));
  base_ids_[id] = {id};
  concat_ids_[{id}] = id;
  VQLDB_RETURN_NOT_OK(
      SetAttribute(id, kAttrDuration, Value::Temporal(std::move(duration))));
  VQLDB_RETURN_NOT_OK(SetAttribute(id, kAttrEntities, Value::EmptySet()));
  return id;
}

Result<ObjectKind> VideoDatabase::KindOf(ObjectId id) const {
  auto it = kinds_.find(id);
  if (it == kinds_.end()) {
    return Status::NotFound("unknown object " + id.ToString());
  }
  return it->second;
}

bool VideoDatabase::IsEntity(ObjectId id) const {
  auto it = kinds_.find(id);
  return it != kinds_.end() && it->second == ObjectKind::kEntity;
}

bool VideoDatabase::IsInterval(ObjectId id) const {
  auto it = kinds_.find(id);
  return it != kinds_.end() && it->second != ObjectKind::kEntity;
}

Result<const VideoObject*> VideoDatabase::GetObject(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("unknown object " + id.ToString());
  }
  return &it->second;
}

Status VideoDatabase::SetAttribute(ObjectId id, const std::string& name,
                                   Value value) {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("unknown object " + id.ToString());
  }
  if (IsInterval(id)) {
    if (name == kAttrDuration && !value.is_temporal()) {
      return Status::TypeError(
          "duration of an interval object must be a temporal constraint, got " +
          value.ToString());
    }
    if (name == kAttrEntities) {
      if (!value.is_set()) {
        return Status::TypeError("entities must be a set of entity oids, got " +
                                 value.ToString());
      }
      for (const Value& member : value.set_elements()) {
        if (!member.is_oid() || !IsEntity(member.oid_value())) {
          return Status::InvalidArgument(
              "entities member " + member.ToString() +
              " is not a known entity object");
        }
      }
    }
  }
  return SetAttributeUnchecked(id, name, std::move(value));
}

Status VideoDatabase::SetAttributeUnchecked(ObjectId id,
                                            const std::string& name,
                                            Value value) {
  VideoObject& obj = objects_.at(id);
  const Value* old_v = obj.FindAttribute(name);

  // Maintain the inverted entities index.
  if (name == kAttrEntities && IsInterval(id)) {
    if (old_v != nullptr && old_v->is_set()) {
      for (const Value& member : old_v->set_elements()) {
        if (!member.is_oid()) continue;
        auto& vec = entity_to_intervals_[member.oid_value()];
        vec.erase(std::remove(vec.begin(), vec.end(), id), vec.end());
      }
    }
    if (value.is_set()) {
      for (const Value& member : value.set_elements()) {
        if (!member.is_oid()) continue;
        entity_to_intervals_[member.oid_value()].push_back(id);
      }
    }
  }
  if (name == kAttrDuration && IsInterval(id)) {
    temporal_dirty_ = true;
  }

  IndexAttribute(id, name, old_v, value);
  ++epoch_;
  return obj.SetAttribute(name, std::move(value));
}

void VideoDatabase::IndexAttribute(ObjectId id, const std::string& name,
                                   const Value* old_v, const Value& new_v) {
  auto& by_value = attr_index_[name];
  if (old_v != nullptr) {
    auto it = by_value.find(*old_v);
    if (it != by_value.end()) {
      auto& vec = it->second;
      vec.erase(std::remove(vec.begin(), vec.end(), id), vec.end());
      if (vec.empty()) by_value.erase(it);
    }
  }
  by_value[new_v].push_back(id);
}

Result<Value> VideoDatabase::GetAttribute(ObjectId id,
                                          const std::string& name) const {
  VQLDB_ASSIGN_OR_RETURN(const VideoObject* obj, GetObject(id));
  return obj->GetAttribute(name);
}

Result<ObjectId> VideoDatabase::Resolve(const std::string& symbol) const {
  auto it = symbols_.find(symbol);
  if (it == symbols_.end()) {
    return Status::NotFound("unknown symbol " + symbol);
  }
  return it->second;
}

const std::string* VideoDatabase::SymbolOf(ObjectId id) const {
  auto it = symbol_of_.find(id);
  return it == symbol_of_.end() ? nullptr : &it->second;
}

Status VideoDatabase::Bind(const std::string& symbol, ObjectId id) {
  if (symbol.empty()) {
    return Status::InvalidArgument("symbol must not be empty");
  }
  if (!Exists(id)) return Status::NotFound("unknown object " + id.ToString());
  if (symbols_.count(symbol)) {
    return Status::AlreadyExists("symbol " + symbol + " is already bound");
  }
  if (symbol_of_.count(id)) {
    return Status::AlreadyExists("object " + id.ToString() +
                                 " already has symbol " + symbol_of_.at(id));
  }
  symbols_.emplace(symbol, id);
  symbol_of_.emplace(id, symbol);
  ++epoch_;
  return Status::OK();
}

std::string VideoDatabase::DisplayName(ObjectId id) const {
  const std::string* sym = SymbolOf(id);
  return sym != nullptr ? *sym : id.ToString();
}

std::vector<ObjectId> VideoDatabase::AllIntervals() const {
  std::vector<ObjectId> out = base_intervals_;
  out.insert(out.end(), derived_intervals_.begin(), derived_intervals_.end());
  return out;
}

Result<std::vector<ObjectId>> VideoDatabase::EntitiesOf(ObjectId gi) const {
  if (!IsInterval(gi)) {
    return Status::InvalidArgument(DisplayName(gi) +
                                   " is not an interval object");
  }
  VQLDB_ASSIGN_OR_RETURN(const VideoObject* obj, GetObject(gi));
  const Value* v = obj->FindAttribute(kAttrEntities);
  std::vector<ObjectId> out;
  if (v != nullptr && v->is_set()) {
    for (const Value& member : v->set_elements()) {
      if (member.is_oid()) out.push_back(member.oid_value());
    }
  }
  return out;
}

Result<IntervalSet> VideoDatabase::DurationOf(ObjectId gi) const {
  if (!IsInterval(gi)) {
    return Status::InvalidArgument(DisplayName(gi) +
                                   " is not an interval object");
  }
  VQLDB_ASSIGN_OR_RETURN(const VideoObject* obj, GetObject(gi));
  const Value* v = obj->FindAttribute(kAttrDuration);
  if (v == nullptr || !v->is_temporal()) {
    return Status::Corruption("interval " + DisplayName(gi) +
                              " has no temporal duration");
  }
  return v->temporal_value();
}

Status VideoDatabase::AddEntityToInterval(ObjectId gi, ObjectId entity) {
  if (!IsInterval(gi)) {
    return Status::InvalidArgument(DisplayName(gi) +
                                   " is not an interval object");
  }
  if (!IsEntity(entity)) {
    return Status::InvalidArgument(DisplayName(entity) +
                                   " is not an entity object");
  }
  VQLDB_ASSIGN_OR_RETURN(const VideoObject* obj, GetObject(gi));
  const Value* v = obj->FindAttribute(kAttrEntities);
  std::vector<Value> members;
  if (v != nullptr && v->is_set()) members = v->set_elements();
  members.push_back(Value::Oid(entity));
  return SetAttribute(gi, kAttrEntities, Value::Set(std::move(members)));
}

Status VideoDatabase::AssertFact(Fact fact) {
  if (fact.relation.empty()) {
    return Status::InvalidArgument("fact relation name must not be empty");
  }
  if (fact.relation.compare(0, 4, "sys_") == 0) {
    return Status::InvalidArgument(
        "the sys_ relation prefix is reserved for system relations: " +
        fact.relation);
  }
  for (const Value& arg : fact.args) {
    if (arg.is_null()) {
      return Status::InvalidArgument("fact arguments must not be null: " +
                                     fact.ToString());
    }
    if (arg.is_oid() && !Exists(arg.oid_value())) {
      return Status::InvalidArgument("fact references unknown object: " +
                                     fact.ToString());
    }
  }
  if (!facts_[fact.relation].empty() &&
      facts_[fact.relation].front().args.size() != fact.args.size()) {
    return Status::InvalidArgument(
        "relation " + fact.relation + " used with arity " +
        std::to_string(fact.args.size()) + " but was previously arity " +
        std::to_string(facts_[fact.relation].front().args.size()));
  }
  if (fact_set_.count(fact)) return Status::OK();  // idempotent
  // Intern the arguments into the global term dictionary up front so every
  // downstream consumer (columnar relations, journal replay, snapshot
  // recovery) finds stored values already encoded.
  uint32_t ids[16];
  uint32_t arity = 0;
  for (const Value& arg : fact.args) {
    uint32_t id = TermDict::Global().Intern(arg).id;
    if (arity < 16) ids[arity] = id;
    ++arity;
  }
  if (obs::StatsEnabled() && arity <= 16) {
    obs::StatsCollector::Global().RecordRow(fact.relation, ids, arity);
  }
  fact_set_.insert(fact);
  facts_[fact.relation].push_back(std::move(fact));
  ++fact_count_;
  ++epoch_;
  return Status::OK();
}

bool VideoDatabase::HasFact(const Fact& fact) const {
  return fact_set_.count(fact) > 0;
}

const std::vector<Fact>& VideoDatabase::FactsFor(
    const std::string& relation) const {
  static const std::vector<Fact> kEmpty;
  auto it = facts_.find(relation);
  return it == facts_.end() ? kEmpty : it->second;
}

std::vector<std::string> VideoDatabase::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(facts_.size());
  for (const auto& [name, v] : facts_) {
    if (!v.empty()) names.push_back(name);
  }
  return names;
}

Result<ObjectId> VideoDatabase::Concatenate(ObjectId a, ObjectId b) {
  if (!IsInterval(a) || !IsInterval(b)) {
    return Status::InvalidArgument(
        "concatenation requires two interval objects, got " + DisplayName(a) +
        " and " + DisplayName(b));
  }
  std::vector<ObjectId> base = base_ids_.at(a);
  const std::vector<ObjectId>& base_b = base_ids_.at(b);
  base.insert(base.end(), base_b.begin(), base_b.end());
  base = Canonical(std::move(base));

  auto it = concat_ids_.find(base);
  if (it != concat_ids_.end()) return it->second;

  // Materialize the derived object: attribute-wise union of the operands
  // (id = f(id_a, id_b) per Section 6.1, canonical in the constituent set).
  VQLDB_ASSIGN_OR_RETURN(ObjectId id,
                         NewObject("", ObjectKind::kDerivedInterval));
  base_ids_[id] = base;
  concat_ids_[base] = id;

  const VideoObject& oa = objects_.at(a);
  const VideoObject& ob = objects_.at(b);
  std::map<std::string, Value> merged;
  for (const auto& [name, value] : oa.attributes()) merged[name] = value;
  for (const auto& [name, value] : ob.attributes()) {
    auto mit = merged.find(name);
    if (mit == merged.end()) {
      merged[name] = value;
    } else {
      mit->second = Value::UnionWith(mit->second, value);
    }
  }
  for (auto& [name, value] : merged) {
    VQLDB_RETURN_NOT_OK(SetAttributeUnchecked(id, name, std::move(value)));
  }
  return id;
}

void VideoDatabase::RollbackDerivedIntervals(size_t keep_count) {
  if (derived_intervals_.size() <= keep_count) return;
  while (derived_intervals_.size() > keep_count) {
    ObjectId id = derived_intervals_.back();
    derived_intervals_.pop_back();
    auto oit = objects_.find(id);
    if (oit != objects_.end()) {
      // Unwind index entries exactly as SetAttributeUnchecked built them.
      for (const auto& [name, value] : oit->second.attributes()) {
        auto ait = attr_index_.find(name);
        if (ait != attr_index_.end()) {
          auto vit = ait->second.find(value);
          if (vit != ait->second.end()) {
            auto& vec = vit->second;
            vec.erase(std::remove(vec.begin(), vec.end(), id), vec.end());
            if (vec.empty()) ait->second.erase(vit);
          }
        }
        if (name == kAttrEntities && value.is_set()) {
          for (const Value& member : value.set_elements()) {
            if (!member.is_oid()) continue;
            auto eit = entity_to_intervals_.find(member.oid_value());
            if (eit == entity_to_intervals_.end()) continue;
            auto& vec = eit->second;
            vec.erase(std::remove(vec.begin(), vec.end(), id), vec.end());
          }
        }
      }
      objects_.erase(oit);
    }
    auto bit = base_ids_.find(id);
    if (bit != base_ids_.end()) {
      concat_ids_.erase(bit->second);
      base_ids_.erase(bit);
    }
    kinds_.erase(id);
    auto sit = symbol_of_.find(id);
    if (sit != symbol_of_.end()) {
      symbols_.erase(sit->second);
      symbol_of_.erase(sit);
    }
  }
  temporal_dirty_ = true;
  ++epoch_;
}

Result<std::vector<ObjectId>> VideoDatabase::BaseIdsOf(ObjectId id) const {
  auto it = base_ids_.find(id);
  if (it == base_ids_.end()) {
    return Status::NotFound(DisplayName(id) + " is not an interval object");
  }
  return it->second;
}

std::vector<ObjectId> VideoDatabase::FindByAttribute(const std::string& name,
                                                     const Value& value) const {
  auto it = attr_index_.find(name);
  if (it == attr_index_.end()) return {};
  auto vit = it->second.find(value);
  if (vit == it->second.end()) return {};
  return vit->second;
}

void VideoDatabase::RebuildTemporalIndexIfDirty() const {
  // Fast path: one flag read. Every duration mutation and interval creation
  // sets the dirty flag, so a clean index — including a clean *empty* index,
  // e.g. when no interval carries a concrete duration — is served as-is.
  // Read-only query bursts must never take the rebuild branch below.
  if (!temporal_dirty_) return;
  ++temporal_rebuilds_;
  static obs::Counter* rebuilds = obs::MetricsRegistry::Global().GetCounter(
      "vqldb_temporal_index_rebuilds_total",
      "Lazy temporal-index rebuilds triggered by dirty reads");
  rebuilds->Increment();
  auto duration_of = [this](ObjectId id) -> const IntervalSet* {
    const Value* v = objects_.at(id).FindAttribute(kAttrDuration);
    return v != nullptr && v->is_temporal() ? &v->temporal_value() : nullptr;
  };
  // Sized exactly: the index stays resident as long as the database (each
  // snapshot generation's copy keeps one), and so would any growth slack.
  const std::vector<ObjectId> intervals = AllIntervals();
  size_t fragments = 0;
  for (ObjectId id : intervals) {
    if (const IntervalSet* d = duration_of(id)) {
      fragments += d->fragments().size();
    }
  }
  temporal_index_.clear();
  temporal_index_.reserve(fragments);
  empty_durations_.clear();
  for (ObjectId id : intervals) {
    const IntervalSet* d = duration_of(id);
    if (d == nullptr) continue;
    if (d->IsEmpty()) empty_durations_.push_back(id);
    for (const TimeInterval& iv : d->fragments()) {
      temporal_index_.push_back(TemporalEntry{iv.lo(), iv.hi(), id});
    }
  }
  std::sort(temporal_index_.begin(), temporal_index_.end(),
            [](const TemporalEntry& a, const TemporalEntry& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end < b.end;
            });
  temporal_prefix_max_end_.resize(temporal_index_.size());
  double running = -TimeInterval::Inf();
  for (size_t i = 0; i < temporal_index_.size(); ++i) {
    running = std::max(running, temporal_index_[i].end);
    temporal_prefix_max_end_[i] = running;
  }
  temporal_dirty_ = false;
}

std::vector<ObjectId> VideoDatabase::IntervalsContaining(double t) const {
  RebuildTemporalIndexIfDirty();
  std::vector<ObjectId> out;
  // Entries with begin <= t, walking back while any suffix of the prefix can
  // still reach t (prefix max end prunes the scan).
  auto it = std::upper_bound(
      temporal_index_.begin(), temporal_index_.end(), t,
      [](double v, const TemporalEntry& e) { return v < e.begin; });
  std::unordered_set<ObjectId> seen;
  for (auto rit = std::make_reverse_iterator(it);
       rit != temporal_index_.rend(); ++rit) {
    size_t idx = static_cast<size_t>(std::distance(temporal_index_.begin(),
                                                   rit.base()) - 1);
    if (temporal_prefix_max_end_[idx] < t) break;  // nothing earlier reaches t
    if (rit->end >= t && seen.insert(rit->id).second) {
      // Exact check against the full (possibly open-bounded) duration.
      const VideoObject& obj = objects_.at(rit->id);
      const Value* v = obj.FindAttribute(kAttrDuration);
      if (v != nullptr && v->is_temporal() && v->temporal_value().Contains(t)) {
        out.push_back(rit->id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObjectId> VideoDatabase::IntervalsOverlapping(
    const IntervalSet& window) const {
  RebuildTemporalIndexIfDirty();
  std::vector<ObjectId> out;
  std::unordered_set<ObjectId> seen;
  for (const TimeInterval& q : window.fragments()) {
    auto it = std::upper_bound(
        temporal_index_.begin(), temporal_index_.end(), q.hi(),
        [](double v, const TemporalEntry& e) { return v < e.begin; });
    for (auto rit = std::make_reverse_iterator(it);
         rit != temporal_index_.rend(); ++rit) {
      size_t idx = static_cast<size_t>(std::distance(temporal_index_.begin(),
                                                     rit.base()) - 1);
      if (temporal_prefix_max_end_[idx] < q.lo()) break;
      if (rit->end >= q.lo() && !seen.count(rit->id)) {
        const VideoObject& obj = objects_.at(rit->id);
        const Value* v = obj.FindAttribute(kAttrDuration);
        if (v != nullptr && v->is_temporal() &&
            v->temporal_value().Overlaps(window)) {
          seen.insert(rit->id);
          out.push_back(rit->id);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObjectId> VideoDatabase::IntervalsWithEntity(
    ObjectId entity) const {
  auto it = entity_to_intervals_.find(entity);
  if (it == entity_to_intervals_.end()) return {};
  std::vector<ObjectId> out = it->second;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const std::vector<ObjectId>& VideoDatabase::IntervalsWithEmptyDuration()
    const {
  RebuildTemporalIndexIfDirty();
  return empty_durations_;
}

Status VideoDatabase::Validate() const {
  for (ObjectId id : base_intervals_) {
    VQLDB_RETURN_NOT_OK(DurationOf(id).ok()
                            ? Status::OK()
                            : DurationOf(id).status());
  }
  for (ObjectId id : derived_intervals_) {
    auto bit = base_ids_.find(id);
    if (bit == base_ids_.end()) {
      return Status::Corruption("derived interval " + DisplayName(id) +
                                " has no base-id record");
    }
    for (ObjectId b : bit->second) {
      if (!Exists(b)) {
        return Status::Corruption("derived interval " + DisplayName(id) +
                                  " references missing base " + b.ToString());
      }
    }
  }
  for (const auto& [gi, kind] : kinds_) {
    if (kind == ObjectKind::kEntity) continue;
    VQLDB_ASSIGN_OR_RETURN(const VideoObject* obj, GetObject(gi));
    const Value* v = obj->FindAttribute(kAttrEntities);
    if (v == nullptr) continue;
    if (!v->is_set()) {
      return Status::Corruption("entities of " + DisplayName(gi) +
                                " is not a set");
    }
    for (const Value& member : v->set_elements()) {
      if (!member.is_oid() || !IsEntity(member.oid_value())) {
        return Status::Corruption("entities of " + DisplayName(gi) +
                                  " contains non-entity " + member.ToString());
      }
    }
  }
  for (const auto& [symbol, id] : symbols_) {
    if (!Exists(id)) {
      return Status::Corruption("symbol " + symbol +
                                " references missing object");
    }
  }
  return Status::OK();
}

VideoDatabase::Stats VideoDatabase::GetStats() const {
  Stats s;
  s.entity_count = entities_.size();
  s.base_interval_count = base_intervals_.size();
  s.derived_interval_count = derived_intervals_.size();
  s.fact_count = fact_count_;
  s.relation_count = RelationNames().size();
  return s;
}

}  // namespace vqldb
