"""Do two source trees simulate the golden panel identically?

Three steps, each run with ``PYTHONPATH`` naming the tree it reads:

    PYTHONPATH=src python .github/scripts/result_identity.py documents panel.json
    PYTHONPATH=<tree>/src python .github/scripts/result_identity.py run panel.json <tree>.json
    python .github/scripts/result_identity.py compare parent.json change.json

``documents`` writes the tree's ``golden_documents()``, the panel that
covers every registered component, plus one document per fading model
(``phy.propagation=rayleigh`` and ``=rician``) that also carries the
``mobility=random_waypoint`` document's mobility block, so dispatch plans
invalidated by moves meet each model's fade draws.  Those two are labelled
``cross:<propagation label>+<mobility label>``, which no golden label can
take.  ``run`` parses each document with the tree's
``ScenarioConfig.from_dict``, runs it through ``run_scenario`` and records,
apart, the canonical config the tree parsed and each outcome field of the
result (``flows``, ``voip_quality``, ``events_processed``), plus the tree's
``CACHE_SCHEMA_VERSION``; a document the tree cannot parse is recorded
with its error.  ``compare`` prints one line per document: ``identical``,
``config only`` (the trees parsed it into different configs, as when a
field goes, but every outcome is the same) or ``DIFFER`` with the outcome
fields that moved.  It exits 1 when a document both trees ran differs in
any way while both trees have the same schema version: a changed result
needs a schema bump.
"""

import json
import sys


#: The golden labels whose documents are crossed: fading models with mobility.
CROSSED_PROPAGATION = ("phy.propagation=rayleigh", "phy.propagation=rician")
CROSSED_MOBILITY = "mobility=random_waypoint"


def write_documents(out_path):
    from repro.corpus.golden import golden_documents

    documents = golden_documents()
    mobility = documents[CROSSED_MOBILITY]["mobility"]
    for label in CROSSED_PROPAGATION:
        crossed = dict(documents[label], mobility=mobility)
        documents[f"cross:{label}+{CROSSED_MOBILITY}"] = crossed
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(documents, handle, indent=1, sort_keys=True)


def run_documents(documents_path, out_path):
    from repro.experiments.parallel import CACHE_SCHEMA_VERSION
    from repro.experiments.runner import ScenarioConfig, run_scenario

    with open(documents_path, encoding="utf-8") as handle:
        documents = json.load(handle)
    results, errors = {}, {}
    for label, document in sorted(documents.items()):
        try:
            config = ScenarioConfig.from_dict(document)
        except Exception as exc:  # any parse failure: report it, skip the document
            errors[label] = f"{type(exc).__name__}: {exc}"
            continue
        result = run_scenario(config).to_dict()
        results[label] = {key: _canonical(value) for key, value in result.items()}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"schema": CACHE_SCHEMA_VERSION, "results": results, "errors": errors},
            handle, indent=1, sort_keys=True,
        )


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: The result fields that are simulated outcomes; the rest is ``config``.
OUTCOMES = ("flows", "voip_quality", "events_processed")


def compare(parent_path, change_path):
    """Print a verdict per document; the number of results that changed unexplained."""
    with open(parent_path, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(change_path, encoding="utf-8") as handle:
        change = json.load(handle)
    same_schema = parent["schema"] == change["schema"]
    print(f"schema: parent {parent['schema']}, change {change['schema']}")
    differ = 0
    labels = sorted(set(parent["results"]) | set(parent["errors"]) | set(change["results"])
                    | set(change["errors"]))
    for label in labels:
        if label in change["errors"]:
            differ += 1
            error = change["errors"][label]
            print(f"FAILED {label}: the change cannot parse its own document ({error})")
        elif label in parent["errors"]:
            print(f"skipped {label}: the parent cannot parse it ({parent['errors'][label]})")
        elif label not in change["results"]:
            print(f"skipped {label}: not in the change's panel")
        elif label not in parent["results"]:
            print(f"skipped {label}: not in the parent's run")
        else:
            before, after = parent["results"][label], change["results"][label]
            moved = [key for key in OUTCOMES if before[key] != after[key]]
            if moved:
                print(f"DIFFER {label}: {', '.join(moved)}")
            elif before["config"] != after["config"]:
                print(f"config only {label}")
            else:
                print(f"identical {label}")
                continue
            differ += 1
    print(f"results: {differ} of {len(labels)} documents differ")
    if change["errors"]:
        return 1
    if differ and same_schema:
        print("results changed but CACHE_SCHEMA_VERSION did not")
        return 1
    return 0


def main(argv):
    if len(argv) == 2 and argv[0] == "documents":
        write_documents(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "run":
        run_documents(argv[1], argv[2])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
