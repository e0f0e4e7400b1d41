"""Deterministic scale corpora for the chronicle benchmark.

Every workload is made from a domain (spec, templates, lexicon, gazetteer),
a seed and a size factor. Message sentences are the domain's
``lone-<type>`` summary templates rendered with the message arguments and
a temporal phrase; when a template carries no trigger lemma of its type,
a trigger word is put in front, so the rules extractor parses every one.
Report timestamps come from ``chronicle.evolution.generate_stream``. Next
to the raw corpus the generator writes the gold messages it intended, with
their days computed here, not by the program.

The seed picks argument values, timestamps, phrases and fillers. The
amount of work (messages per type, sources per incident, recurrences of a
theme per source) is fixed by the workload and the size, so the relation
count, and with it the run time, hardly moves from seed to seed.

Run directly to write one workload:
    python3 benchmarks/generate.py relate-dense --seed 1 --out /tmp/w
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import sys
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
DOMAINS = HERE / "domains"
UTC = timezone.utc

# Same segmentation as the corpus tokenizer: word runs or one punctuation mark.
_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:[-'][A-Za-z0-9]+)*|[^\sA-Za-z0-9]")
_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z0-9_.]+)\}")

MONTHS = ["January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December"]
WEEKDAYS = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
            "Saturday", "Sunday"]

FILLERS = [
    "Officials declined further comment.",
    "The area remained sealed off.",
    "Reporters waited outside the perimeter.",
    "Details stayed scarce through the evening.",
    "Observers called the mood cautious.",
    "Crowds formed near the gates.",
]
GAZETTEER_FILLERS = [
    "Correspondents for {a} and {b} waited outside the perimeter.",
    "{a} quoted a spokesman for {b} at length.",
    "Analysts at {a} compared the account with {b}.",
]


def ensure_chronicle(root: Path) -> None:
    """Make ``chronicle`` importable from the checkout's ``src``."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# ---------------------------------------------------------------------------
# Domain description read from the spec files

@dataclass
class Domain:
    name: str
    spec: Path
    templates: Path
    lexicon: Path
    gazetteer: Path
    slots: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)
    triggers: list[tuple[str, frozenset[str]]] = field(default_factory=list)
    patterns: dict[str, str] = field(default_factory=dict)
    lemma: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, name: str, spec: Path | None = None,
             gazetteer: Path | None = None) -> "Domain":
        from chronicle.corpus import load_lexicon
        from chronicle.extract import load_trigger_rules
        from chronicle.ontology import load_message_specs, load_ontology
        from chronicle.summarize import load_templates

        base = DOMAINS / name
        dom = cls(name, spec or base / "domain.spec", base / "templates.txt",
                  base / "lexicon.tsv", gazetteer or base / "gazetteer.tsv")
        ontology = load_ontology(dom.spec)
        specs = load_message_specs(dom.spec, ontology)
        dom.slots = {m.name: m.slots for m in specs}
        for rule in load_trigger_rules(dom.spec, specs):
            dom.triggers.append((rule.msg_type, frozenset(rule.lemmas)))
        dom.patterns = {n: t.pattern for n, t in load_templates(dom.templates).items()}
        dom.lemma = {k.lower(): v for k, v in load_lexicon(dom.lexicon).items()}
        return dom

    def classify(self, text: str) -> str | None:
        """Type the rules extractor gives ``text``: first trigger in spec order."""
        lemmas = {self.lemma.get(w.lower(), w.lower()) for w in _WORD_RE.findall(text)}
        for msg_type, wanted in self.triggers:
            if lemmas & wanted:
                return msg_type
        return None

    def trigger_word(self, msg_type: str) -> str:
        wanted = next(w for t, w in self.triggers if t == msg_type)
        inflected = sorted(s for s, l in self.lemma.items() if l in wanted)
        return inflected[0] if inflected else sorted(wanted)[0]

    def sentence(self, msg_type: str, args: dict[str, str], source: str,
                 when: str) -> str:
        ctx = {"source": source, "sources": source, "date": when, "type": msg_type}
        ctx.update({slot: value.replace("_", " ") for slot, value in args.items()})
        text = _PLACEHOLDER_RE.sub(lambda m: ctx[m.group(1)],
                                   self.patterns[f"lone-{msg_type}"])
        if self.classify(text) is None:
            text = f"[{self.trigger_word(msg_type)}] {text}"
        if self.classify(text) != msg_type:
            raise ValueError(f"cannot render an unambiguous {msg_type} sentence: {text!r}")
        return text


def day_phrase(rng: random.Random, event: date, published: date,
               kinds: tuple[str, ...]) -> str:
    """A phrase of the shipped temporal grammar that names ``event`` when
    read on ``published`` (never after it)."""
    back = (published - event).days
    assert back >= 0
    options = []
    if "iso" in kinds:
        options.append(event.isoformat())
    if "dmy" in kinds:
        options.append(f"{event.day} {MONTHS[event.month - 1]} {event.year}")
    if "relative" in kinds:
        options.append({0: "today", 1: "yesterday"}.get(back, f"{back} days ago"))
        if back == 1:
            options.append("1 day ago")
    if "weekday" in kinds and 1 <= back <= 7:
        options.append(f"last {WEEKDAYS[event.weekday()]}")
    if "weekday" in kinds and back <= 6:
        options.append(f"on {WEEKDAYS[event.weekday()]}")
    if "vague" in kinds and back == 0:
        # unresolvable: the extractor falls back to the publication day
        options.append("recently")
    return rng.choice(options)


def rfc3339(t: datetime) -> str:
    return t.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")


def utc_day(t: datetime) -> date:
    return t.astimezone(UTC).date()


# ---------------------------------------------------------------------------
# Output

@dataclass
class Doc:
    doc_id: str
    source: str
    published: datetime
    sentences: list[str] = field(default_factory=list)
    gold: list[tuple[int, str, dict, date]] = field(default_factory=list)

    def add_message(self, dom: Domain, rng: random.Random, msg_type: str,
                    args: dict[str, str], event: date, kinds: tuple[str, ...]):
        when = day_phrase(rng, event, utc_day(self.published), kinds)
        self.gold.append((len(self.sentences), msg_type, args, event))
        self.sentences.append(dom.sentence(msg_type, args, self.source, when))


def write_workload(out: Path, name: str, seed: int, scale: float, dom: Domain,
                   docs: list[Doc], window: str, expect: dict) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    docs = sorted(docs, key=lambda d: (d.source, d.published, d.doc_id))
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps({"doc_id": d.doc_id, "source": d.source,
                                 "publish_time": rfc3339(d.published),
                                 "text": d.sentences}, sort_keys=True) + "\n")
    messages = 0
    with open(out / "gold.jsonl", "w", encoding="utf-8") as fh:
        for d in docs:
            for index, msg_type, args, event in d.gold:
                full = {slot: args.get(slot) for slot, _ in dom.slots[msg_type]}
                fh.write(json.dumps({"doc_id": d.doc_id, "sentence_index": index,
                                     "type": msg_type, "args": full,
                                     "time": event.isoformat()},
                                    sort_keys=True) + "\n")
                messages += 1
    manifest = {
        "workload": name, "seed": seed, "scale": scale, "domain": dom.name,
        "window": window, "expect": expect,
        "corpus": str(out / "corpus.jsonl"), "gold": str(out / "gold.jsonl"),
        "spec": str(dom.spec), "templates": str(dom.templates),
        "lexicon": str(dom.lexicon), "gazetteer": str(dom.gazetteer),
        "documents": len(docs),
        "sentences": sum(len(d.sentences) for d in docs),
        "messages": messages,
        "sources": len({d.source for d in docs}),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _fillers(rng: random.Random, count: int) -> list[str]:
    return [rng.choice(FILLERS) for _ in range(count)]


# ---------------------------------------------------------------------------
# relate-dense: a few hostage incidents, echoed by asynchronous sources

RELATE_DENSE_INCIDENTS = 170
RELATE_DENSE_SOURCES = ("aegean_news", "courier", "herald", "tribune")
# Sources per incident, cycled; 1 leaves a lone report (ellipsis).
RELATE_DENSE_COVERAGE = (4, 3, 4, 2, 3, 4, 1, 3)


def relate_dense(seed: int, scale: float, out: Path) -> dict:
    from chronicle.evolution import StreamParams, generate_stream

    dom = Domain.load("hostage")
    rng = random.Random(f"relate-dense/{seed}")
    persons = ["captors", "Italian_government", "mediators", "Simona"]
    activities = ["occupation", "release", "ransom", "ceasefire"]

    # Distinct themes: negotiate triples, demands by different persons, and
    # start/end pairs on the same arguments so termination chains form.
    triples = [(a, b, c) for a, b in itertools.permutations(persons, 2)
               for c in activities]
    themes: list[tuple[str, dict]] = []
    for e1, e2, about in rng.sample(triples, 4):
        themes.append(("negotiate", {"entity_1": e1, "entity_2": e2, "about": about}))
    for entity, about in zip(rng.sample(persons, 2), rng.sample(activities, 2)):
        themes.append(("demand", {"entity": entity, "about": about}))
    pairs = rng.sample([(p, a) for p in persons for a in activities], 2)
    themes += [("start", {"entity": p, "activity": a}) for p, a in pairs]
    themes += [("end", {"entity": p, "activity": a}) for p, a in pairs]
    order = list(range(len(themes)))
    rng.shuffle(order)
    demand_abouts = {t[1]["about"] for t in themes if t[0] == "demand"}

    incidents = max(8, round(RELATE_DENSE_INCIDENTS * scale))
    params = StreamParams(seed=seed, burst_size=(2, 5),
                          intra_burst_gap=timedelta(hours=6),
                          inter_burst_gap=timedelta(days=4))
    stream = generate_stream("non-linear", 1, params, incidents)
    times = [d.publish_time for d in stream.documents]
    sources = RELATE_DENSE_SOURCES
    lag_base = [timedelta(hours=3 * k) for k in range(len(sources))]
    docs: list[Doc] = []
    counters = {s: 0 for s in sources}
    for i, t in enumerate(times):
        # A theme recurs once every len(themes) incidents, more than a burst
        # holds, so two incidents of one theme never share a window.
        msg_type, args = themes[order[i % len(themes)]]
        cover = RELATE_DENSE_COVERAGE[i % len(RELATE_DENSE_COVERAGE)]
        covering = [sources[(i + k) % len(sources)] for k in range(cover)]
        event = utc_day(t)
        for k, source in enumerate(covering):
            reported = dict(args)
            if msg_type == "demand" and cover >= 3 and k == cover - 1:
                # the last source reports a different demand: disagreement
                reported["about"] = sorted(set(activities) - demand_abouts
                                           - {args["about"]})[0]
            lag = lag_base[sources.index(source)] + timedelta(
                minutes=rng.randrange(0, 30 * 60))
            counters[source] += 1
            doc = Doc(f"{source}-{counters[source]:04d}", source, t + lag)
            doc.add_message(dom, rng, msg_type, reported, event,
                            ("iso", "dmy", "relative", "weekday"))
            doc.sentences += _fillers(rng, rng.randrange(0, 2))
            docs.append(doc)
    return write_workload(out, "relate-dense", seed, scale, dom, docs, "1d",
                          {"linearity": "non-linear", "emission": "asynchronous"})


# ---------------------------------------------------------------------------
# lexicon-wide: the hostage domain grown by a synthetic gazetteer and
# ontology; arguments rarely repeat, so few message pairs relate.

LEXICON_WIDE_REPORTS = 15          # per source
LEXICON_WIDE_SOURCES = 3
LEXICON_WIDE_PERSONS = 1000        # extra Person instances, also PER entries
LEXICON_WIDE_ACTIVITIES = 200      # extra Activity instances
LEXICON_WIDE_ORGS = 200            # gazetteer-only ORG entries
LEXICON_WIDE_RECUR = 6
_SYLLABLES = ["ba", "ko", "ri", "ta", "vel", "mun", "dor", "shi", "lan", "pe",
              "gro", "ste", "vi", "nak", "zu", "ol", "mer", "tis", "cha", "fen"]


def _synthetic_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(3))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _grow_domain(rng: random.Random, out: Path) -> tuple[Domain, list[str], list[str], list[str]]:
    base = DOMAINS / "hostage"
    taken: set[str] = set()
    first = _synthetic_words(rng, 60, taken)
    last = _synthetic_words(rng, 60, taken)
    nouns = _synthetic_words(rng, 40, taken)
    names = [f"{a.title()}_{b.title()}" for a, b in itertools.product(first, last)]
    rng.shuffle(names)
    persons = names[:LEXICON_WIDE_PERSONS]
    orgs = names[LEXICON_WIDE_PERSONS:LEXICON_WIDE_PERSONS + LEXICON_WIDE_ORGS]
    acts = [f"{a}_{b}" for a, b in itertools.product(nouns, nouns) if a != b]
    rng.shuffle(acts)
    activities = acts[:LEXICON_WIDE_ACTIVITIES]

    out.mkdir(parents=True, exist_ok=True)
    spec = out / "domain.spec"
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write((base / "domain.spec").read_text(encoding="utf-8"))
        fh.write("\n# synthetic growth\n")
        fh.writelines(f"instance {p} : Person\n" for p in persons)
        fh.writelines(f"instance {a} : Activity\n" for a in activities)
    gazetteer = out / "gazetteer.tsv"
    with open(gazetteer, "w", encoding="utf-8") as fh:
        fh.write((base / "gazetteer.tsv").read_text(encoding="utf-8"))
        fh.writelines(f"{p.replace('_', ' ')}\tPER\n" for p in persons)
        fh.writelines(f"{o.replace('_', ' ')}\tORG\n" for o in orgs)
    return Domain.load("hostage", spec, gazetteer), persons, activities, orgs


def lexicon_wide(seed: int, scale: float, out: Path) -> dict:
    from chronicle.evolution import StreamParams, generate_stream

    rng = random.Random(f"lexicon-wide/{seed}")
    dom, persons, activities, orgs = _grow_domain(random.Random(f"lexicon-wide-domain/{seed}"), out)
    reports = max(4, round(LEXICON_WIDE_REPORTS * scale))
    params = StreamParams(seed=seed, source_offsets=(0, 95, 230))
    stream = generate_stream("non-linear", LEXICON_WIDE_SOURCES, params, reports)
    kinds = ("iso", "dmy", "relative", "weekday", "vague")
    types = ["negotiate", "demand", "start", "end"]

    def draw(msg_type: str) -> dict[str, str]:
        if msg_type == "negotiate":
            e1, e2 = rng.sample(persons, 2)
            return {"entity_1": e1, "entity_2": e2, "about": rng.choice(activities)}
        if msg_type == "demand":
            return {"entity": rng.choice(persons), "about": rng.choice(activities)}
        return {"entity": rng.choice(persons), "activity": rng.choice(activities)}

    # One message in LEXICON_WIDE_RECUR repeats one of a few incidents, so a
    # few pairs do relate.
    recurring = [(t, draw(t)) for t in types]
    docs: list[Doc] = []
    for n, skeleton in enumerate(stream.documents):
        doc = Doc(skeleton.doc_id, skeleton.source, skeleton.publish_time)
        published = utc_day(doc.published)
        for k in range(2):
            msg_type = types[(n + k) % len(types)]
            event = published - timedelta(days=rng.randrange(0, 7))
            args = draw(msg_type)
            if (2 * n + k) % LEXICON_WIDE_RECUR == 0:
                msg_type, args = recurring[(2 * n + k) // LEXICON_WIDE_RECUR % len(types)]
            doc.add_message(dom, rng, msg_type, args, event, kinds)
            a, b = rng.sample(orgs, 2)
            doc.sentences.append(rng.choice(GAZETTEER_FILLERS).format(
                a=a.replace("_", " "), b=b.replace("_", " ")))
        if n % 7 == 3:
            # equal negotiating parties violate the type constraint: discarded
            p = rng.choice(persons).replace("_", " ")
            doc.sentences.append(f"{p} negotiated with {p} about the "
                                 f"{rng.choice(activities).replace('_', ' ')}.")
        docs.append(doc)
    return write_workload(out, "lexicon-wide", seed, scale, dom, docs, "1d",
                          {"linearity": "non-linear", "emission": "asynchronous"})


# ---------------------------------------------------------------------------
# diachronic-long: weekly football reports from three synchronous sources

DIACHRONIC_LONG_WEEKS = 40
DIACHRONIC_LONG_ASPECTS = 3
DIACHRONIC_LONG_SWAPS = 4          # weeks where the third source disagrees


def diachronic_long(seed: int, scale: float, out: Path) -> dict:
    from chronicle.evolution import StreamParams, generate_stream

    dom = Domain.load("football")
    rng = random.Random(f"diachronic-long/{seed}")
    weeks = max(8, 4 * round(DIACHRONIC_LONG_WEEKS * scale / 4))
    params = StreamParams(seed=seed, start=datetime(2004, 1, 3, 18, 0, tzinfo=UTC),
                          period=timedelta(weeks=1), jitter=0.001,
                          source_offsets=(0, 10, 20))
    stream = generate_stream("linear", 3, params, weeks)
    entities = ["Petrov", "Costa", "Alpha_United", "Beta_City"]
    areas = ["defense", "midfield", "attack"]
    spans = ["first_half", "second_half", "full_match"]
    scale_values = ["poor", "mediocre", "good", "excellent"]
    aspects = rng.sample(list(itertools.product(entities, areas, spans)),
                         DIACHRONIC_LONG_ASPECTS)
    # Each aspect takes every value equally often, in seeded order: the
    # number of stability pairs is then the same for every seed.
    series = []
    for _ in aspects:
        values = scale_values * (weeks // len(scale_values))
        rng.shuffle(values)
        series.append(values)
    # swapped weeks are even, so no week is swapped twice
    pairs = (weeks - 1) // 2
    swapped = {2 * k for k in rng.sample(range(pairs), min(pairs, DIACHRONIC_LONG_SWAPS))}
    docs: list[Doc] = []
    for skeleton in stream.documents:
        week = skeleton.report_index
        doc = Doc(skeleton.doc_id, skeleton.source, skeleton.publish_time)
        event = utc_day(doc.published)
        for (entity, area, span), values in zip(aspects, series):
            value = values[week]
            if skeleton.source == "source-3" and (week in swapped or week - 1 in swapped):
                # swap with the neighbouring week: same value counts, other order
                value = values[week + 1] if week in swapped else values[week - 1]
            args = {"entity": entity, "in_what": area, "time_span": span, "value": value}
            doc.add_message(dom, rng, "performance", args, event, ("iso", "dmy", "relative"))
        doc.sentences += _fillers(rng, rng.randrange(0, 2))
        docs.append(doc)
    return write_workload(out, "diachronic-long", seed, scale, dom, docs, "0",
                          {"linearity": "linear", "emission": "synchronous"})


WORKLOADS = {
    "relate-dense": relate_dense,
    "lexicon-wide": lexicon_wide,
    "diachronic-long": diachronic_long,
}


def generate(workload: str, seed: int, scale: float, out: Path) -> dict:
    return WORKLOADS[workload](seed, scale, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    ensure_chronicle(HERE.parent)
    manifest = generate(args.workload, args.seed, args.scale, Path(args.out))
    json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
