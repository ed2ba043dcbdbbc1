"""Deterministic simulated LLM.

Offline substitution for the paper's Llama3-8B-Instruct / GPT-3.5-Turbo (see
DESIGN.md §1).  The model answers rendered prompts — the same prompt
strings a served model would receive — by dispatching on the prompt's
``### TASK:`` header and computing a rule-based response:

* ``ner`` / ``triple`` / ``std``: lexicon-driven extraction over the
  sentence grammar shared with the dataset generators, with *injected
  noise* (dropped and corrupted extractions keyed by a stable hash) so
  extraction is imperfect in a reproducible way;
* ``relevance``: lexical overlap scoring, standing in for the LLM relevance
  judgement of Eq. 1;
* ``authority``: a weighted structural score over node features (global
  influence, local connection strength, type consistency, path support),
  standing in for the PTCA-style credibility assessment behind Eq. 10;
* ``answer``: evidence-grounded answer synthesis;
* ``parametric``: closed-book recall from an optional ground-truth oracle
  with a configurable accuracy — this models the base model's internal
  (hallucination-prone) knowledge and powers the CoT baseline.

Everything is deterministic given the construction ``seed``; no global RNG
state is touched.
"""

from __future__ import annotations

import json
import re
from typing import Any

from repro.llm.base import LLMClient
from repro.llm.lexicon import BY_PREDICATE, split_sentence
from repro.llm.prompts import parse_sections
from repro.retrieval.tokenize import sentences, tokenize
from repro.util import normalize_value, stable_hash, stable_uniform

#: Feature weights of the simulated authority judgement (C_LLM of Eq. 10).
AUTHORITY_WEIGHTS: dict[str, float] = {
    "agreement": 0.45,
    "degree": 0.05,
    "type_consistency": 0.35,
    "path_support": 0.15,
}


_NAME_SWAP_RE = re.compile(r"^([^,]+), (.+)$")
_THOUSANDS_RE = re.compile(r"^\d{1,3}(,\d{3})+$")


def _destyle(mention: str) -> str:
    """Undo common per-source formatting conventions (the standardization
    "intelligence" of the simulated model): comma-inverted names and titles
    ("Nolan, Christopher" / "Silent Horizon, The"), currency prefixes and
    thousands separators."""
    text = " ".join(mention.split())
    if text.startswith("$") and text[1:].replace(".", "", 1).isdigit():
        return text[1:]
    if _THOUSANDS_RE.match(text):
        return text.replace(",", "")
    match = _NAME_SWAP_RE.match(text)
    if match:
        head, tail = match.group(1).strip(), match.group(2).strip()
        if head and tail and "," not in tail:
            return f"{tail} {head}"
    return text


class SimulatedLLM(LLMClient):
    """Rule-based, seeded stand-in for an instruction-tuned LLM."""

    def __init__(
        self,
        seed: int = 0,
        extraction_noise: float = 0.05,
        knowledge: dict[str, set[str]] | None = None,
        knowledge_accuracy: float = 0.55,
        hallucination_pool: tuple[str, ...] = (),
        base_latency_s: float = 0.05,
        latency_per_token_s: float = 0.00002,
        wall_latency_scale: float = 0.0,
    ) -> None:
        super().__init__(base_latency_s, latency_per_token_s, wall_latency_scale)
        if not 0.0 <= extraction_noise <= 1.0:
            raise ValueError("extraction_noise must lie in [0, 1]")
        if not 0.0 <= knowledge_accuracy <= 1.0:
            raise ValueError("knowledge_accuracy must lie in [0, 1]")
        self.seed = seed
        self.extraction_noise = extraction_noise
        self.knowledge = knowledge or {}
        self.knowledge_accuracy = knowledge_accuracy
        self.hallucination_pool = hallucination_pool

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _generate(self, prompt: str) -> str:
        sections = parse_sections(prompt)
        task = sections.get("TASK", "")
        handlers = {
            "ner": self._handle_ner,
            "triple": self._handle_triple,
            "std": self._handle_std,
            "relevance": self._handle_relevance,
            "authority": self._handle_authority,
            "answer": self._handle_answer,
            "parametric": self._handle_parametric,
        }
        handler = handlers.get(task)
        if handler is None:
            # Unknown instruction: echo a refusal the way a served model
            # falls back to generic text.
            return "I cannot determine the requested structure."
        return handler(sections)

    # ------------------------------------------------------------------
    # noise helpers
    # ------------------------------------------------------------------
    def _drop(self, *key_parts: object) -> bool:
        """Deterministically decide whether to drop one extraction."""
        return stable_uniform("drop", *key_parts, seed=self.seed) < self.extraction_noise

    def _corrupt(self, *key_parts: object) -> bool:
        """Deterministically decide whether to corrupt one extraction."""
        draw = stable_uniform("corrupt", *key_parts, seed=self.seed)
        return draw < self.extraction_noise / 2.0

    # ------------------------------------------------------------------
    # extraction tasks
    # ------------------------------------------------------------------
    def _parse_statements(self, text: str) -> list[tuple[str, str, str]]:
        statements = []
        for sent in sentences(text):
            parsed = split_sentence(sent)
            if parsed is not None:
                statements.append(parsed)
        return statements

    def _handle_ner(self, sections: dict[str, str]) -> str:
        text = sections.get("INPUT", "")
        entities: list[dict[str, str]] = []
        seen: set[str] = set()

        def add(name: str, etype: str) -> None:
            if name and name not in seen and not self._drop("ner", name):
                seen.add(name)
                entities.append({"name": name, "type": etype})

        for subject, predicate, obj in self._parse_statements(text):
            spec = BY_PREDICATE.get(predicate)
            add(subject, spec.subject_type if spec else "thing")
            add(obj, spec.object_type if spec else "thing")
        return json.dumps(entities)

    def _handle_triple(self, sections: dict[str, str]) -> str:
        text = sections.get("INPUT", "")
        try:
            entity_list = set(json.loads(sections.get("ENTITIES", "[]")))
        except json.JSONDecodeError:
            entity_list = set()
        statements = self._parse_statements(text)
        all_objects = [o for _, _, o in statements]
        triples: list[list[str]] = []
        for subject, predicate, obj in statements:
            if entity_list and subject not in entity_list:
                continue
            if self._drop("triple", subject, predicate, obj):
                continue
            if len(all_objects) > 1 and self._corrupt("triple", subject, predicate, obj):
                # Simulated mis-extraction: the model attaches a *different*
                # object mentioned in the same context window.
                alternatives = [o for o in all_objects if o != obj]
                idx = stable_hash("swap", subject, predicate, obj, seed=self.seed)
                obj = alternatives[idx % len(alternatives)]
            triples.append([subject, predicate, obj])
        return json.dumps(triples)

    def _handle_std(self, sections: dict[str, str]) -> str:
        try:
            mentions = json.loads(sections.get("ENTITIES", "[]"))
        except json.JSONDecodeError:
            mentions = []
        canonical_by_norm: dict[str, str] = {}
        mapping: dict[str, str] = {}
        for mention in mentions:
            rewritten = _destyle(str(mention))
            norm = normalize_value(rewritten)
            if norm not in canonical_by_norm:
                canonical_by_norm[norm] = rewritten
            mapping[mention] = canonical_by_norm[norm]
        return json.dumps(mapping)

    # ------------------------------------------------------------------
    # scoring tasks
    # ------------------------------------------------------------------
    def _handle_relevance(self, sections: dict[str, str]) -> str:
        query = sections.get("QUERY", "")
        text = sections.get("INPUT", "")
        q_tokens = set(tokenize(query))
        t_tokens = set(tokenize(text))
        if not q_tokens:
            return "0.0"
        overlap = len(q_tokens & t_tokens) / len(q_tokens)
        return f"{overlap:.6f}"

    def _handle_authority(self, sections: dict[str, str]) -> str:
        try:
            features: dict[str, Any] = json.loads(sections.get("INPUT", "{}"))
        except json.JSONDecodeError:
            features = {}
        score = 0.0
        for name, weight in AUTHORITY_WEIGHTS.items():
            value = float(features.get(name, 0.0))
            score += weight * max(0.0, min(1.0, value))
        # Small deterministic judge noise so scores are not perfectly tied.
        jitter = (stable_uniform("auth", json.dumps(features, sort_keys=True),
                                 seed=self.seed) - 0.5) * 0.02
        return f"{max(0.0, min(1.0, score + jitter)):.6f}"

    # ------------------------------------------------------------------
    # generation tasks
    # ------------------------------------------------------------------
    def _handle_answer(self, sections: dict[str, str]) -> str:
        query = sections.get("QUERY", "")
        evidence = [
            line for line in sections.get("INPUT", "").splitlines() if line.strip()
        ]
        values: list[str] = []
        seen: set[str] = set()
        for line in evidence:
            parts = [p.strip() for p in line.split("|")]
            if len(parts) >= 3:
                value = parts[2]
                norm = normalize_value(value)
                if norm not in seen:
                    seen.add(norm)
                    values.append(value)
        if not values:
            return f"No trustworthy answer was found for: {query}"
        return "; ".join(values)

    def _handle_parametric(self, sections: dict[str, str]) -> str:
        """Closed-book recall with a controllable hallucination rate."""
        key = sections.get("INPUT", "").strip()
        truth = self.knowledge.get(key)
        draw = stable_uniform("param", key, seed=self.seed)
        if truth and draw < self.knowledge_accuracy:
            # Correct recall, but possibly partial for multi-valued answers.
            ordered = sorted(truth)
            keep = max(1, round(len(ordered) * (0.5 + draw)))
            return "; ".join(ordered[:keep])
        if self.hallucination_pool:
            fabricated = self.hallucination_pool[
                stable_hash("halluc", key, seed=self.seed) % len(self.hallucination_pool)
            ]
            return fabricated
        return f"unverifiable-claim-{stable_hash('halluc', key, seed=self.seed) % 1000}"

    # NOTE: the semantic convenience wrappers (``extract_entities``,
    # ``extract_triples``, ``standardize``, ``relevance``, ``authority``,
    # ``generate_answer``, ``parametric_answer``) live on
    # :class:`~repro.llm.base.LLMClient` — they render the same prompt
    # strings this model dispatches on, tagged with their pipeline stage.
