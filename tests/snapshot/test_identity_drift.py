"""Drift gate for the snapshot LLM identity.

``compute_fingerprint`` keys snapshots on :func:`_llm_identity` — the
set of constructor attributes that make two LLM clients behave
identically.  If someone adds a behavioral knob to
:class:`SimulatedLLM` without teaching the identity about it, two
behaviorally different pipelines silently share one fingerprint and
warm-load each other's state.  This suite pins the contract
structurally: every constructor parameter of ``SimulatedLLM`` must be
reflected in the identity.
"""

from __future__ import annotations

import inspect

from repro.llm import SimulatedLLM
from repro.snapshot.fingerprint import _llm_identity


def test_every_simulated_ctor_param_is_in_the_identity():
    params = [
        name
        for name in inspect.signature(SimulatedLLM.__init__).parameters
        if name != "self"
    ]
    identity = _llm_identity(SimulatedLLM())
    missing = [name for name in params if name not in identity]
    assert not missing, (
        f"SimulatedLLM constructor knob(s) {missing} are absent from "
        "_llm_identity — behaviorally different LLMs would share a "
        "snapshot fingerprint; add them to the identity attribute list"
    )


def test_each_identity_attr_distinguishes_clients():
    base = dict(
        seed=3,
        extraction_noise=0.1,
        knowledge={"Inception|directed_by": {"Christopher Nolan"}},
        knowledge_accuracy=0.5,
        hallucination_pool=("Wrong Answer",),
        base_latency_s=0.05,
        latency_per_token_s=0.00002,
        wall_latency_scale=0.0,
    )
    reference = _llm_identity(SimulatedLLM(**base))
    variants = dict(
        seed=4,
        extraction_noise=0.2,
        knowledge={"Inception|directed_by": {"Someone Else"}},
        knowledge_accuracy=0.6,
        hallucination_pool=("Other Answer",),
        base_latency_s=0.06,
        latency_per_token_s=0.00004,
        wall_latency_scale=0.5,
    )
    for name, value in variants.items():
        changed = _llm_identity(SimulatedLLM(**{**base, name: value}))
        assert changed != reference, (
            f"changing {name} does not change the LLM identity"
        )
