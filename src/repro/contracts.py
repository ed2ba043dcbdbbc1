"""Runtime contract validators for the pipeline's data structures.

Cheap assert-style checks for the invariants the static rules cannot
see: confidence bounds (Eqs. 7–11), MLG referential integrity, and
SVs/LVs disjointness of an MCC pass.  All failures raise
:class:`repro.errors.ContractViolation`.

The validators are duck-typed on purpose: this module is a leaf that
depends only on ``repro.errors`` (enforced by LAY001), so a validator
can never be broken by a refactor of the code it checks, and importing
it loads nothing else.  Call them from tests or enable
``MultiRAGConfig(debug_contracts=True)`` to run them inside the
pipeline on every ingest/query.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.errors import ContractViolation

#: ``C(v) = S_n(v) + A(v)`` lives in [0, 2] (both terms are unit-scale).
NODE_CONFIDENCE_MAX = 2.0


def check_unit_interval(value: float, name: str = "confidence") -> float:
    """``value`` must lie in [0, 1] (graph confidence, Eq. 7 scale).

    Raises:
        ContractViolation: out-of-range or non-finite values.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ContractViolation(f"{name} must be a float, got {value!r}")
    if math.isnan(value):
        raise ContractViolation(f"{name} is NaN")
    if not 0.0 <= value <= 1.0:
        raise ContractViolation(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def check_node_confidence(value: float, name: str = "C(v)") -> float:
    """Node confidence ``C(v) = S_n + A`` must lie in [0, 2].

    Raises:
        ContractViolation: out-of-range or non-finite values.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ContractViolation(f"{name} must be a float, got {value!r}")
    if math.isnan(value):
        raise ContractViolation(f"{name} is NaN")
    if not 0.0 <= value <= NODE_CONFIDENCE_MAX:
        raise ContractViolation(
            f"{name} must lie in [0, {NODE_CONFIDENCE_MAX}], got {value}"
        )
    return float(value)


def check_mcc_result(result: Any) -> Any:
    """Validate an ``MCCResult``: bounds, disjointness, bookkeeping.

    * every decision's accepted/rejected sets are disjoint;
    * no accepted triple also sits in the isolated set ``LVs``
      (``SVs``/``LVs`` partition the candidates);
    * graph confidence, when computed, is unit scale;
    * ``nodes_scored`` is consistent with the per-decision assessments.

    Raises:
        ContractViolation: on the first violated invariant.
    """
    lvs_ids = {id(triple) for triple in result.lvs}
    scored = 0
    for decision in result.decisions:
        if decision.graph_conf is not None:
            check_unit_interval(decision.graph_conf, "graph_conf")
        accepted_ids = {id(a.triple) for a in decision.accepted}
        rejected_ids = {id(a.triple) for a in decision.rejected}
        overlap = accepted_ids & rejected_ids
        if overlap:
            raise ContractViolation(
                f"group {decision.group.key}: {len(overlap)} triple(s) both "
                f"accepted and rejected"
            )
        accepted_in_lvs = accepted_ids & lvs_ids
        if accepted_in_lvs:
            raise ContractViolation(
                f"group {decision.group.key}: {len(accepted_in_lvs)} "
                f"accepted triple(s) also listed in LVs — SVs and LVs "
                f"must be disjoint"
            )
        scored += len(decision.accepted) + len(decision.rejected)
    if result.nodes_scored < 0:
        raise ContractViolation(
            f"nodes_scored is negative: {result.nodes_scored}"
        )
    if result.nodes_scored > scored:
        raise ContractViolation(
            f"nodes_scored={result.nodes_scored} exceeds the "
            f"{scored} assessments present in the decisions"
        )
    return result


def check_mlg(mlg: Any) -> Any:
    """Validate a ``MultiSourceLineGraph``'s referential integrity.

    * every group is reachable through the key index under its own key;
    * ``snode.num`` equals the member count and members are non-empty;
    * every member triple agrees with its group's ``(entity, attribute)``
      key;
    * no isolated triple's key collides with a group (a key is either
      grouped or isolated, never both).

    Raises:
        ContractViolation: on the first violated invariant.
    """
    group_keys = set()
    for group in mlg.groups:
        if not group.members:
            raise ContractViolation(f"group {group.key} has no members")
        if group.snode.num != len(group.members):
            raise ContractViolation(
                f"group {group.key}: snode.num={group.snode.num} but "
                f"{len(group.members)} members"
            )
        for member in group.members:
            if member.key() != group.key:
                raise ContractViolation(
                    f"group {group.key} contains member with key "
                    f"{member.key()}"
                )
        indexed = mlg.group(*group.key)
        if indexed is not group:
            raise ContractViolation(
                f"group {group.key} is not reachable via the key index"
            )
        if group.snode.confidence is not None:
            check_unit_interval(group.snode.confidence, "snode.confidence")
        group_keys.add(group.key)
    for triple in mlg.isolated:
        if triple.key() in group_keys:
            raise ContractViolation(
                f"isolated triple {triple.key()} collides with a "
                f"homologous group — a key is grouped or isolated, "
                f"never both"
            )
    return mlg


def check_ranked_answers(answers: Iterable[Any]) -> list[Any]:
    """Ranked answers must be confidence-sorted with unit-scale scores
    normalized for presentation.

    Raises:
        ContractViolation: on unsorted or out-of-range confidences.
    """
    ranked = list(answers)
    previous: float | None = None
    for answer in ranked:
        conf = check_node_confidence(answer.confidence, "answer.confidence")
        if previous is not None and conf > previous + 1e-9:
            raise ContractViolation(
                "ranked answers are not sorted by descending confidence"
            )
        previous = conf
    return ranked
