#include "dataflow/interpreter.hpp"

#include <vector>

#include "common/check.hpp"
#include "dataflow/ops_eval.hpp"

namespace clusterbft::dataflow {

std::map<std::string, Relation> interpret(
    const LogicalPlan& plan, const std::map<std::string, Relation>& inputs) {
  std::vector<Relation> results(plan.size());
  std::map<std::string, Relation> stored;
  // Consumers left per result: the last one takes the relation instead of
  // a copy.
  std::vector<std::size_t> uses(plan.size(), 0);
  for (const OpNode& n : plan.nodes()) {
    for (const OpId in : n.inputs) ++uses[in];
  }
  const auto take = [&](OpId in) {
    return --uses[in] == 0 ? std::move(results[in]) : results[in];
  };

  for (const OpNode& n : plan.nodes()) {  // construction order is topological
    switch (n.kind) {
      case OpKind::kLoad: {
        auto it = inputs.find(n.path);
        CBFT_CHECK_MSG(it != inputs.end(), "missing input table: " + n.path);
        CBFT_CHECK_MSG(it->second.schema().size() == n.schema.size(),
                       "LOAD schema arity mismatch for " + n.path);
        results[n.id] = Relation(n.schema, it->second.rows());
        break;
      }
      case OpKind::kStore:
        stored[n.path] = take(n.inputs[0]);
        break;
      default: {
        std::vector<Relation> ins;
        ins.reserve(n.inputs.size());
        for (OpId in : n.inputs) ins.push_back(take(in));
        results[n.id] = eval_op(n, std::move(ins));
        break;
      }
    }
  }
  return stored;
}

}  // namespace clusterbft::dataflow
