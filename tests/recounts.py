"""Brute-force recounts that the tests check the pipeline stages against.

Everything here is implemented naively (direct summation, full recounts)
and on purpose shares no code with the modules it checks. Performance is a
non-goal.
"""

from __future__ import annotations

import math
from datetime import datetime
from typing import Sequence


def binomial_interval(n: int, p: float, coverage: float = 0.99) -> tuple[int, int]:
    """Central coverage interval of Binomial(n, p), by direct summation."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    tail = (1.0 - coverage) / 2.0
    # log-pmf recurrence keeps this stable for large n
    log_pmf = [0.0] * (n + 1)
    if p in (0.0, 1.0):
        k = 0 if p == 0.0 else n
        return k, k
    log_pmf[0] = n * math.log1p(-p)
    for k in range(1, n + 1):
        log_pmf[k] = log_pmf[k - 1] + math.log(n - k + 1) - math.log(k) \
            + math.log(p) - math.log1p(-p)
    cdf = 0.0
    lo = 0
    for k in range(n + 1):
        cdf += math.exp(log_pmf[k])
        if cdf >= tail:
            lo = k
            break
    cdf = 0.0
    hi = n
    for k in range(n, -1, -1):
        cdf += math.exp(log_pmf[k])
        if cdf >= tail:
            hi = k
            break
    return lo, hi


def prevalence_recount(rows: Sequence[dict], code: str) -> float:
    """Fraction of JSON-form rows whose primary code equals ``code``."""
    if not rows:
        return 0.0
    hits = sum(1 for r in rows if r["primary_code"] == code)
    return hits / len(rows)


def accuracy_recount(pairs: Sequence[tuple[str, str]]) -> float:
    """Fraction of (predicted, truth) pairs that agree."""
    if not pairs:
        return 0.0
    return sum(1 for a, b in pairs if a == b) / len(pairs)


# ---------------------------------------------------------------------------
# Stage recounts. Each reads records in their JSON form, the objects a
# records file holds, and recounts one stage's result with dicts and loops.
# ---------------------------------------------------------------------------

def _layer_code(row: dict, layer: str) -> str:
    if layer == "clinical" and row.get("clinical_code") is not None:
        return row["clinical_code"]
    return row["primary_code"]


def profile_recount(rows: Sequence[dict], layer: str) -> dict:
    """Per-code usage of a batch on ``layer`` ("administrative" or "clinical").

    ``codes`` maps each code, in first-seen order, to its count, the text
    of its latest encounter time (the first one seen among equal instants)
    and its counts by co-code, by (age band, sex), by (year, month) and by
    institution. Dates are read off the timestamp text, so they are the
    record's own wall-clock dates.
    """
    codes: dict[str, dict] = {}
    versions: dict[str, int] = {}
    days: list[str] = []
    for row in rows:
        code = _layer_code(row, layer)
        text = row["encounter_time"]
        if code not in codes:
            codes[code] = {"count": 0, "last_seen": text, "co_codes": {}, "strata": {},
                           "months": {}, "institutions": {}}
        usage = codes[code]
        usage["count"] += 1
        if datetime.fromisoformat(text) > datetime.fromisoformat(usage["last_seen"]):
            usage["last_seen"] = text
        for co in row["co_codes"]:
            usage["co_codes"][co] = usage["co_codes"].get(co, 0) + 1
        stratum = (row["patient_age_band"], row["patient_sex"])
        usage["strata"][stratum] = usage["strata"].get(stratum, 0) + 1
        month = (int(text[0:4]), int(text[5:7]))
        usage["months"][month] = usage["months"].get(month, 0) + 1
        institution = row["institution_id"]
        usage["institutions"][institution] = usage["institutions"].get(institution, 0) + 1
        versions[row["version_tag"]] = versions.get(row["version_tag"], 0) + 1
        days.append(text[0:10])
    return {"n": len(rows), "codes": codes, "versions": versions,
            "first_day": min(days) if days else None, "last_day": max(days) if days else None}


def group_keys(rows: Sequence[dict], keys: Sequence[str]) -> list[tuple]:
    """Each row's values at ``keys``, co-codes as a frozenset."""
    return [tuple(frozenset(row[key]) if key == "co_codes" else row[key] for key in keys)
            for row in rows]


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def reference_recount(history: Sequence[dict], code_set: Sequence[str],
                      top_k: int = 10) -> dict:
    """The reference model of a history batch, with add-one smoothing over
    ``code_set``: per-code counts, co-occurrence distributions and their
    top ``top_k`` codes, per-institution code rates and their peer medians,
    and the candidate codes (history codes inside the code set, sorted)."""
    n_codes = len(code_set)
    code_counts: dict[str, int] = {}
    cell_counts: dict[tuple[str, str, str], int] = {}
    stratum_totals: dict[tuple[str, str], int] = {}
    co_counts: dict[str, dict[str, int]] = {}
    inst_counts: dict[tuple[str, str], int] = {}
    inst_totals: dict[str, int] = {}
    for row in history:
        code, stratum = row["primary_code"], (row["patient_age_band"], row["patient_sex"])
        code_counts[code] = code_counts.get(code, 0) + 1
        cell_counts[(code, *stratum)] = cell_counts.get((code, *stratum), 0) + 1
        stratum_totals[stratum] = stratum_totals.get(stratum, 0) + 1
        for co in row["co_codes"]:
            co_counts.setdefault(code, {})
            co_counts[code][co] = co_counts[code].get(co, 0) + 1
        key = (row["institution_id"], code)
        inst_counts[key] = inst_counts.get(key, 0) + 1
        inst_totals[row["institution_id"]] = inst_totals.get(row["institution_id"], 0) + 1
    cooccurrence: dict[str, dict[str, float]] = {}
    top: dict[str, tuple[str, ...]] = {}
    for code in code_set:
        counts = co_counts.get(code, {})
        denominator = sum(counts.values()) + n_codes
        cooccurrence[code] = {co: (counts.get(co, 0) + 1) / denominator for co in code_set}
        ranked = sorted(code_set, key=lambda co: (-cooccurrence[code][co], co))
        top[code] = tuple(ranked[:top_k])
    rates = {(inst, code): (inst_counts.get((inst, code), 0) + 1) / (total + n_codes)
             for inst, total in inst_totals.items() for code in code_set}
    medians = {code: _median([rates[(inst, code)] for inst in inst_totals])
               for code in code_set}
    return {
        "n": len(history), "code_set": list(code_set), "code_counts": code_counts,
        "cell_counts": cell_counts, "stratum_totals": stratum_totals,
        "cooccurrence": cooccurrence, "top_cooccurring": top,
        "institution_rates": rates, "peer_medians": medians,
        "candidate_codes": sorted(c for c in code_counts if c in code_set),
    }


def fidelity_recount(row: dict, reference: dict) -> tuple[float, float, float]:
    """The (prevalence, co-occurrence, institutional) subscores of one record
    against a :func:`reference_recount`."""
    n_codes = len(reference["code_set"])
    code, age, sex = row["primary_code"], row["patient_age_band"], row["patient_sex"]
    expected = (reference["cell_counts"].get((code, age, sex), 0) + 1) / (
        reference["stratum_totals"].get((age, sex), 0) + n_codes)
    marginal = (reference["code_counts"].get(code, 0) + 1) / (reference["n"] + n_codes)
    ratio = expected / marginal
    prevalence = min(1.0, ratio / (1.0 + ratio))

    co_codes = set(row["co_codes"])
    top = reference["top_cooccurring"].get(code, ())
    if not co_codes or not top:
        cooccurrence = 0.5
    else:
        cooccurrence = len(co_codes & set(top)) / min(len(co_codes), len(top))

    rate = reference["institution_rates"].get((row["institution_id"], code), 1.0 / n_codes)
    median = reference["peer_medians"].get(code, 1.0 / n_codes)
    institutional = 0.0 if median <= 0 else 1.0 - min(1.0, abs(rate - median) / median)
    return prevalence, cooccurrence, institutional


def likeliest_recount(co_codes: Sequence[str], reference: dict
                      ) -> tuple[str | None, str | None, float]:
    """The candidate code under which ``co_codes`` are likeliest, the
    runner-up, and the log-likelihood margin between them.

    The log-likelihood of a candidate sums the log co-occurrence of each
    co-code it knows, in sorted order; equal sums go to the smaller code.
    The margin is infinite when there is no runner-up.
    """
    scored = []
    for candidate in reference["candidate_codes"]:
        dist = reference["cooccurrence"][candidate]
        total = 0.0
        for co in sorted(co_codes):
            if co in dist:
                total += math.log(dist[co])
        scored.append((-total, candidate, total))
    scored.sort()
    if not scored:
        return None, None, math.inf
    if len(scored) == 1:
        return scored[0][1], None, math.inf
    return scored[0][1], scored[1][1], scored[0][2] - scored[1][2]


def gate_recount(rows: Sequence[dict], system: dict, target: str) -> list[tuple[str, str]]:
    """Per record, the gate's bucket ("accepted", "reconciled" or the
    quarantine reason) and its code after the gate, from the code-system
    file's JSON object. A record is reconciled when every adjacent table
    from its version to ``target`` maps its code to exactly one code."""
    labels = [v["label"] for v in system["versions"]]
    validated = {v["label"]: v["validated"] for v in system["versions"]}
    codes = {label: {entry["code"] for entry in entries}
             for label, entries in system["codes"].items()}
    tables = {(t["from"], t["to"]): t for t in system.get("transitions", [])}
    out = []
    for row in rows:
        code, version = row["primary_code"], row["version_tag"]
        if version == target:
            out.append(("accepted" if code in codes.get(target, ()) else "unknown_code", code))
        elif version not in validated or not validated[version]:
            out.append(("unvalidated_version", code))
        elif labels.index(version) > labels.index(target):
            out.append(("unmappable_code", code))
        elif code not in codes.get(version, ()):
            out.append(("unknown_code", code))
        else:
            current = code
            for i in range(labels.index(version), labels.index(target)):
                table = tables.get((labels[i], labels[i + 1]))
                targets = [] if table is None or current in table.get("unmappable", []) else [
                    m["to_code"] for m in table["mappings"] if m["from_code"] == current]
                if len(targets) != 1:
                    current = None
                    break
                current = targets[0]
            out.append(("unmappable_code", code) if current is None else ("reconciled", current))
    return out


def retrain_recount(rows: Sequence[dict], markers: Sequence[str]) -> dict[str, float]:
    """Per code (sorted), the share of the records carrying it, as primary
    code or co-code, whose co-codes include one of ``markers``."""
    totals: dict[str, int] = {}
    positives: dict[str, int] = {}
    for row in rows:
        outcome = any(co in markers for co in row["co_codes"])
        for code in set([row["primary_code"]] + list(row["co_codes"])):
            totals[code] = totals.get(code, 0) + 1
            positives[code] = positives.get(code, 0) + (1 if outcome else 0)
    return {code: positives[code] / totals[code] for code in sorted(totals)}


def dormancy_recount(rows: Sequence[dict], layer: str, significant: Sequence[str],
                     threshold: float) -> dict[str, str]:
    """Each code of a batch on ``layer``, in first-seen order, with its class:
    "active" when its share of the records is at least ``threshold``, else
    "dormant" when it is on the ``significant`` list, else "pruned"."""
    counts: dict[str, int] = {}
    for row in rows:
        code = _layer_code(row, layer)
        counts[code] = counts.get(code, 0) + 1
    classes = {}
    for code, count in counts.items():
        if count / len(rows) >= threshold:
            classes[code] = "active"
        elif code in significant:
            classes[code] = "dormant"
        else:
            classes[code] = "pruned"
    return classes


def activation_recount(rows: Sequence[dict], layer: str,
                       conditions_by_code: dict[str, list[dict]],
                       events: Sequence[dict]) -> list[tuple[str, dict]]:
    """Each (code, condition) that fires against a batch on ``layer``, codes
    sorted and each code's conditions in their order. A prevalence_exceeds
    condition fires when the code's share of the records is above its
    threshold; a domain_transfer_request fires when an event of that kind
    names its domain, and an outbreak_signal when one names its code."""
    fired = []
    for code in sorted(conditions_by_code):
        count = sum(1 for row in rows if _layer_code(row, layer) == code)
        for condition in conditions_by_code[code]:
            if condition["kind"] == "prevalence_exceeds":
                hit = bool(rows) and count / len(rows) > condition["threshold"]
            else:
                field = "domain" if condition["kind"] == "domain_transfer_request" \
                    else "signal_code"
                hit = any(event["kind"] == condition["kind"]
                          and event.get(field) == condition[field] for event in events)
            if hit:
                fired.append((code, condition))
    return fired


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def drift_cause_recount(drifting: Sequence[str], release_changed: dict[str, bool],
                        taxonomy: Sequence[dict]) -> dict[str, dict]:
    """The probable cause of each drifting code's drift, from the other
    drifting codes, whether the matched release changed the code, and the
    current version's taxonomy (objects with ``code``, ``billing_category``
    and ``clinical_group``).

    The billing and clinical overlaps are the Jaccard index of the other
    drifting codes and the code's other taxonomy peers; the release score is
    1 or 0. The cause is the highest score, ties going to administrative
    (type_b), then terminological (type_c), then epidemiological (type_a);
    the confidence is its score over the sum clinical + billing + release,
    or 1/3 when every score is 0."""
    placement = {entry["code"]: entry for entry in taxonomy}
    causes = {}
    for code in drifting:
        others = set(drifting) - {code}
        billing_peers, clinical_peers = set(), set()
        if code in placement:
            for entry in taxonomy:
                if entry["code"] == code:
                    continue
                if entry["billing_category"] == placement[code]["billing_category"]:
                    billing_peers.add(entry["code"])
                if entry["clinical_group"] == placement[code]["clinical_group"]:
                    clinical_peers.add(entry["code"])
        billing = _jaccard(others, billing_peers)
        clinical = _jaccard(others, clinical_peers)
        release = 1.0 if release_changed[code] else 0.0
        total = clinical + billing + release
        if total == 0.0:
            drift_type, confidence = "type_b", 1.0 / 3.0
        else:
            drift_type, best = "type_b", billing
            if release > best:
                drift_type, best = "type_c", release
            if clinical > best:
                drift_type, best = "type_a", clinical
            confidence = best / total
        causes[code] = {"drift_type": drift_type, "confidence": confidence,
                        "billing_overlap": billing, "clinical_overlap": clinical}
    return causes
