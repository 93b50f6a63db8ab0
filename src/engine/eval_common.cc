#include "src/engine/eval_common.h"

#include <algorithm>
#include <string>
#include <utility>

namespace vqldb {
namespace eval_common {

Status ResolveOperand(const VideoDatabase& db, bool strict_types,
                      const CompiledOperand& operand, const BindingEnv& env,
                      Value* out, bool* defined) {
  *defined = true;
  switch (operand.kind) {
    case CompiledOperand::Kind::kValue:
    case CompiledOperand::Kind::kTemporal:
      *out = operand.value;
      return Status::OK();
    case CompiledOperand::Kind::kVar:
      *out = env.Get(operand.var);
      return Status::OK();
    case CompiledOperand::Kind::kAccess: {
      Value base = operand.base_is_var ? env.Get(operand.var)
                                       : operand.base_value;
      if (!base.is_oid()) {
        if (strict_types) {
          return Status::TypeError("attribute access on non-object value " +
                                   base.ToString());
        }
        *defined = false;
        return Status::OK();
      }
      auto obj = db.GetObject(base.oid_value());
      if (!obj.ok()) {
        *defined = false;
        return Status::OK();
      }
      const Value* v = (*obj)->FindAttribute(operand.attribute);
      if (v == nullptr) {
        *defined = false;  // undefined attribute: the constraint fails
        return Status::OK();
      }
      *out = *v;
      return Status::OK();
    }
  }
  return Status::Internal("unhandled operand kind");
}

Status CheckConstraint(const VideoDatabase& db, bool strict_types,
                       const CompiledConstraint& constraint,
                       const BindingEnv& env, bool* ok) {
  *ok = false;
  Value lhs, rhs;
  bool lhs_defined = false, rhs_defined = false;
  VQLDB_RETURN_NOT_OK(
      ResolveOperand(db, strict_types, constraint.lhs, env, &lhs, &lhs_defined));
  VQLDB_RETURN_NOT_OK(
      ResolveOperand(db, strict_types, constraint.rhs, env, &rhs, &rhs_defined));
  if (!lhs_defined || !rhs_defined) return Status::OK();  // *ok stays false

  auto type_fail = [&](const std::string& message) -> Status {
    if (strict_types) {
      return Status::TypeError(message + " in constraint " + constraint.source);
    }
    return Status::OK();  // *ok stays false
  };

  switch (constraint.kind) {
    case ConstraintExpr::Kind::kCompare: {
      if (constraint.op == CompareOp::kEq || constraint.op == CompareOp::kNe) {
        *ok = EvalCompare(lhs.Compare(rhs), constraint.op, 0);
        return Status::OK();
      }
      // Order comparisons require comparable sorts.
      bool comparable = (lhs.is_numeric() && rhs.is_numeric()) ||
                        (lhs.is_string() && rhs.is_string());
      if (!comparable) {
        return type_fail("order comparison between " + lhs.ToString() +
                         " and " + rhs.ToString());
      }
      *ok = EvalCompare(lhs.Compare(rhs), constraint.op, 0);
      return Status::OK();
    }

    case ConstraintExpr::Kind::kMembership: {
      if (rhs.is_set()) {
        auto r = rhs.SetContains(lhs);
        *ok = r.ok() && *r;
        return Status::OK();
      }
      if (rhs.is_temporal() && lhs.is_numeric()) {
        auto t = lhs.AsDouble();
        *ok = t.ok() && rhs.temporal_value().Contains(*t);
        return Status::OK();
      }
      return type_fail("membership in non-set value " + rhs.ToString());
    }

    case ConstraintExpr::Kind::kSubset: {
      if (lhs.is_set() && rhs.is_set()) {
        auto r = lhs.SetSubsetOf(rhs);
        *ok = r.ok() && *r;
        return Status::OK();
      }
      if (lhs.is_temporal() && rhs.is_temporal()) {
        *ok = lhs.temporal_value().SubsetOf(rhs.temporal_value());
        return Status::OK();
      }
      return type_fail("subset between " + lhs.ToString() + " and " +
                       rhs.ToString());
    }

    case ConstraintExpr::Kind::kEntails: {
      // c1 => c2 over C~: inclusion of the denoted point sets (a constraint
      // entails another iff c1 and not(c2) is unsatisfiable; Def. 2 remark).
      if (lhs.is_temporal() && rhs.is_temporal()) {
        *ok = lhs.temporal_value().SubsetOf(rhs.temporal_value());
        return Status::OK();
      }
      return type_fail("entailment between non-temporal values " +
                       lhs.ToString() + " and " + rhs.ToString());
    }

    case ConstraintExpr::Kind::kBefore:
    case ConstraintExpr::Kind::kMeets:
    case ConstraintExpr::Kind::kOverlaps: {
      // Interval-operator constraints (the `equals, before, ...` operators
      // of the related SQL-like languages, lifted to generalized intervals):
      //   before:   every instant of lhs precedes every instant of rhs
      //   meets:    sup(lhs) == inf(rhs)
      //   overlaps: the extents share at least one instant.
      if (!lhs.is_temporal() || !rhs.is_temporal()) {
        return type_fail("temporal relation between non-temporal values " +
                         lhs.ToString() + " and " + rhs.ToString());
      }
      const IntervalSet& a = lhs.temporal_value();
      const IntervalSet& b = rhs.temporal_value();
      if (constraint.kind == ConstraintExpr::Kind::kOverlaps) {
        *ok = a.Overlaps(b);
      } else if (a.IsEmpty() || b.IsEmpty()) {
        *ok = false;
      } else if (constraint.kind == ConstraintExpr::Kind::kBefore) {
        *ok = a.Max() < b.Min() ||
              (a.Max() == b.Min() &&
               (a.fragments().back().hi_open() ||
                b.fragments().front().lo_open()));
      } else {  // kMeets
        *ok = a.Max() == b.Min();
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled constraint kind");
}

Status EvalConcreteLiteral(const ConcreteDomain& domain, bool strict_types,
                           const CompiledLiteral& lit, const BindingEnv& env,
                           bool* holds) {
  *holds = false;
  std::vector<DomainValue> args;
  args.reserve(lit.args.size());
  for (const CompiledTerm& arg : lit.args) {
    const Value* v;
    if (arg.is_var) {
      if (!env.IsBound(arg.var)) {
        return Status::EvaluationError(
            "argument of concrete-domain predicate " + lit.predicate +
            " is unbound; computable predicates cannot bind variables");
      }
      v = &env.Get(arg.var);
    } else {
      v = &arg.value;
    }
    if (v->is_numeric()) {
      args.push_back(DomainValue::Number(*v->AsDouble()));
    } else if (v->is_string()) {
      args.push_back(DomainValue::String(v->string_value()));
    } else {
      if (strict_types) {
        return Status::TypeError("concrete-domain predicate " + lit.predicate +
                                 " applied to non-atomic value " +
                                 v->ToString());
      }
      return Status::OK();  // non-atomic argument: the check fails
    }
  }
  VQLDB_ASSIGN_OR_RETURN(*holds, domain.Evaluate(lit.predicate, args));
  return Status::OK();
}

bool InClass(const VideoDatabase& db, ObjectId id, BuiltinClass builtin) {
  switch (builtin) {
    case BuiltinClass::kInterval:
      return db.IsInterval(id);
    case BuiltinClass::kObject:
      return db.IsEntity(id);
    case BuiltinClass::kAnyobject:
      return db.Exists(id);
    case BuiltinClass::kNone:
      return false;
  }
  return false;
}

namespace {

// The whole object domain of a builtin class.
std::vector<ObjectId> DomainOf(const VideoDatabase& db, BuiltinClass builtin) {
  switch (builtin) {
    case BuiltinClass::kInterval:
      return db.AllIntervals();
    case BuiltinClass::kObject:
      return db.Entities();
    case BuiltinClass::kAnyobject: {
      std::vector<ObjectId> out = db.Entities();
      std::vector<ObjectId> intervals = db.AllIntervals();
      out.insert(out.end(), intervals.begin(), intervals.end());
      return out;
    }
    case BuiltinClass::kNone:
      return {};
  }
  return {};
}

// The candidates one applicable source yields (see ClassSource), in
// DomainOf order. Each is exact in the sense that every value it omits
// fails the source's constraint, given the bindings of its input.
std::vector<ObjectId> SourceCandidates(const VideoDatabase& db,
                                       BuiltinClass builtin,
                                       const ClassSource& source,
                                       const BindingEnv& env) {
  Value input;
  bool defined = false;
  // Resolved leniently, as the constraint will be (narrowing is off under
  // strict types): an undefined input fails the constraint for every value.
  if (!ResolveOperand(db, /*strict_types=*/false, source.input, env, &input,
                      &defined)
           .ok() ||
      !defined) {
    return {};
  }
  std::vector<ObjectId> out;
  switch (source.kind) {
    case ClassSource::Kind::kEntityIndex:
      // An interval's `entities` holds entity oids only (SetAttribute
      // validates it), so no interval lists a non-oid X.
      if (input.is_oid()) out = db.IntervalsWithEntity(input.oid_value());
      break;
    case ClassSource::Kind::kSetMembers:
      // `V in S` holds for an oid V only when S is a set holding V.
      if (!input.is_set()) break;
      for (const Value& member : input.set_elements()) {
        if (member.is_oid() && InClass(db, member.oid_value(), builtin)) {
          out.push_back(member.oid_value());
        }
      }
      break;
    case ClassSource::Kind::kTemporalIndex: {
      // A non-empty duration inside W overlaps W; the empty one entails
      // every W. A non-temporal W fails the entailment outright.
      if (!input.is_temporal()) break;
      out = db.IntervalsOverlapping(input.temporal_value());
      const std::vector<ObjectId>& empty = db.IntervalsWithEmptyDuration();
      out.insert(out.end(), empty.begin(), empty.end());
      break;
    }
  }
  // DomainOf order: by kind (ObjectKind lists entities, base intervals and
  // derived intervals in that order), then by id, which creation assigns in
  // increasing order.
  std::vector<std::pair<ObjectKind, ObjectId>> keyed;
  keyed.reserve(out.size());
  for (ObjectId id : out) keyed.emplace_back(*db.KindOf(id), id);
  std::sort(keyed.begin(), keyed.end());
  for (size_t i = 0; i < keyed.size(); ++i) out[i] = keyed[i].second;
  return out;
}

}  // namespace

std::vector<ObjectId> ClassCandidates(const VideoDatabase& db,
                                      bool strict_types,
                                      const CompiledStep& step,
                                      const BindingEnv& env) {
  const ClassSource* source =
      strict_types ? nullptr : step.FirstBoundSource([&env](int v) {
        return env.IsBound(v);
      });
  return source != nullptr
             ? SourceCandidates(db, step.literal.builtin, *source, env)
             : DomainOf(db, step.literal.builtin);
}

}  // namespace eval_common
}  // namespace vqldb
