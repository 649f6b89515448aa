// Reference truth functions for gates::GateOp, for tests only.
//
// Written independently of the library's gate evaluator, over a plain
// vector of input levels, so simulated gates are always checked against a
// second implementation rather than against themselves.
#pragma once

#include <stdexcept>
#include <vector>

#include "gates/combinational.hpp"

namespace mts::gates {

inline bool reference_gate(GateOp op, const std::vector<bool>& v) {
  switch (op) {
    case GateOp::kNot:
      return !v.at(0);
    case GateOp::kBuf:
      return v.at(0);
    case GateOp::kAnd:
    case GateOp::kNand: {
      bool all = true;
      for (bool b : v) all = all && b;
      return op == GateOp::kAnd ? all : !all;
    }
    case GateOp::kOr:
    case GateOp::kNor: {
      bool any = false;
      for (bool b : v) any = any || b;
      return op == GateOp::kOr ? any : !any;
    }
    case GateOp::kXor: {
      bool acc = false;
      for (bool b : v) acc = acc != b;
      return acc;
    }
    case GateOp::kAndNotLast: {
      bool acc = !v.back();
      for (std::size_t i = 0; i + 1 < v.size(); ++i) acc = acc && v[i];
      return acc;
    }
    case GateOp::kOrNotLast: {
      bool acc = !v.back();
      for (std::size_t i = 0; i + 1 < v.size(); ++i) acc = acc || v[i];
      return acc;
    }
    case GateOp::kMux:
      return v.at(0) ? v.at(1) : v.at(2);
    case GateOp::kAndNotRest: {
      bool acc = v.at(0);
      for (std::size_t i = 1; i < v.size(); ++i) acc = acc && !v[i];
      return acc;
    }
  }
  throw std::logic_error("reference_gate: unknown GateOp");
}

}  // namespace mts::gates
