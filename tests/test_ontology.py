from __future__ import annotations

import itertools
import random
from datetime import timedelta

import pytest

from chronicle.errors import (CycleInTaxonomy, DslSyntaxError, DuplicateInstance,
                              DuplicateMessageType, ScaleRequired,
                              UnknownConcept, UnknownInstance,
                              UnknownMessageType, UnknownSlot)
from chronicle.extract import load_gold_messages, load_trigger_rules
from chronicle.ontology import (ConditionAtom, Ontology, load_message_specs,
                                load_ontology, load_relation_specs)
from chronicle.relations import (WindowPolicy, brute_force_oracle,
                                 evaluate_relations)
from tests.oracles import dump_domain, is_subtype_oracle


def write_spec(tmp_path, text, name="d.spec"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_single_edge_subtype(tmp_path):
    path = write_spec(tmp_path, "concept Entity\nconcept Person < Entity\n"
                                "instance Simona : Person\n")
    onto = load_ontology(path)
    assert "Entity" in onto.ancestors["Person"]
    assert onto.instances["Simona"] == "Person"


def test_subtype_reflexive_transitive_antisymmetric(tmp_path):
    path = write_spec(tmp_path, "concept Entity\nconcept Person < Entity\n"
                                "concept Player < Person\n")
    onto = load_ontology(path)
    assert "Person" in onto.ancestors["Person"]
    assert "Entity" in onto.ancestors["Player"]
    assert "Player" not in onto.ancestors["Entity"]
    for a, b in itertools.product(onto.concepts, repeat=2):
        if b in onto.ancestors[a] and a in onto.ancestors[b]:
            assert a == b


def random_forest(rng: random.Random) -> Ontology:
    """A taxonomy forest: each concept's parent is an earlier concept or
    none, with names shuffled so that declaration order says nothing."""
    names = [f"C{k}" for k in range(rng.randint(1, 14))]
    rng.shuffle(names)
    parent = {name: rng.choice(names[:k]) for k, name in enumerate(names)
              if k and rng.random() < 0.8}
    return Ontology(concepts=frozenset(names), parent=parent, instances={},
                    ordered_scales={})


@pytest.mark.parametrize("seed", range(40))
def test_is_subtype_matches_oracle(seed):
    """``b in ancestors[a]`` is the subtype test; ``ancestors`` has an entry
    for every concept and for nothing else, so an unknown name has none."""
    onto = random_forest(random.Random(seed))
    for a, b in itertools.product(sorted(onto.concepts), repeat=2):
        assert (b in onto.ancestors[a]) == is_subtype_oracle(onto, a, b)
    assert onto.ancestors.keys() == onto.concepts


def test_degree_scale_four_values(football):
    scales = dict(football.ontology.ordered_scales)
    assert scales["Degree"] == ("poor", "mediocre", "good", "excellent")


def test_instance_with_missing_concept(tmp_path):
    path = write_spec(tmp_path, "concept Entity\ninstance Truck : Vehicle\n")
    with pytest.raises(UnknownConcept):
        load_ontology(path)


def test_cycle_detected(tmp_path):
    path = write_spec(tmp_path, "concept A < B\nconcept B < A\n")
    with pytest.raises(CycleInTaxonomy):
        load_ontology(path)


def test_duplicate_instance(tmp_path):
    path = write_spec(tmp_path, "concept A\ninstance x : A\ninstance x : A\n")
    with pytest.raises(DuplicateInstance):
        load_ontology(path)


def test_unknown_parent_names_the_child_line(tmp_path):
    path = write_spec(tmp_path, "concept A\n\nconcept B < Missing\n")
    with pytest.raises(UnknownConcept, match="unknown parent concept 'Missing'") as err:
        load_ontology(path)
    assert err.value.line == 3


def test_scale_value_must_be_an_instance(tmp_path):
    path = write_spec(tmp_path, "concept Degree\ninstance good : Degree\n"
                                "scale Degree = good < great\n")
    with pytest.raises(UnknownInstance, match="'great' is not an instance$") as err:
        load_ontology(path)
    assert err.value.line == 3


def test_scale_value_must_be_of_the_scale_concept(tmp_path):
    path = write_spec(tmp_path, "concept Degree\nconcept Team\n"
                                "instance good : Degree\ninstance Ajax : Team\n"
                                "scale Degree = good < Ajax\n")
    with pytest.raises(UnknownInstance,
                       match="'Ajax' is not an instance of 'Degree'") as err:
        load_ontology(path)
    assert err.value.line == 5


def test_scale_on_a_parent_concept_serves_its_children(tmp_path):
    # the child concept comes before its parent, the scale before both
    path = write_spec(tmp_path, "scale Degree = poor < good\n"
                                "concept Rating < Degree\nconcept Degree\n"
                                "instance poor : Rating\ninstance good : Degree\n"
                                "message m(x: Rating)\n"
                                "relation better axis=diachronic left=m right=m "
                                "where left.x < right.x\n")
    onto = load_ontology(path)
    assert onto.scale_for("Rating") == ("poor", "good")
    specs = load_message_specs(path, onto)
    (rule,) = load_relation_specs(path, specs, onto)
    assert rule.conditions == (ConditionAtom(
        op="lt", left_slot="x", right_slot="x", scale=("poor", "good")),)


def test_football_performance_slots(football):
    spec = {m.name: m for m in football.message_specs}["performance"]
    assert spec.slots == (("entity", "PlayerOrTeam"), ("in_what", "ActionArea"),
                          ("time_span", "MinuteOrDuration"), ("value", "Degree"))


def test_hostage_negotiate_slots(hostage):
    spec = {m.name: m for m in hostage.message_specs}["negotiate"]
    assert spec.slots == (("entity_1", "Person"), ("entity_2", "Person"),
                          ("about", "Activity"))
    assert spec.constraints == (
        ConditionAtom(op="neq", left_slot="entity_1", right_slot="entity_2"),)


def test_message_with_unknown_concept(tmp_path):
    path = write_spec(tmp_path, "concept A\nmessage m(x: Vehicle)\n")
    onto = load_ontology(path)
    with pytest.raises(UnknownConcept):
        load_message_specs(path, onto)


def test_duplicate_message_type(tmp_path):
    path = write_spec(tmp_path, "concept A\nmessage m(x: A)\nmessage m(y: A)\n")
    onto = load_ontology(path)
    with pytest.raises(DuplicateMessageType):
        load_message_specs(path, onto)


def test_agreement_rule_parses(football):
    agreement = [r for r in football.relation_specs if r.name == "agreement"]
    assert len(agreement) == 1
    rule = agreement[0]
    assert rule.axis == "synchronic"
    assert rule.left_type == rule.right_type == "performance"
    assert rule.symmetric and rule.distance is None
    assert [a.op for a in rule.conditions] == ["eq"] * 4


def test_positive_graduation_rule_parses(football):
    rule = [r for r in football.relation_specs
            if r.name == "positive_graduation"][0]
    assert rule.axis == "diachronic"
    assert rule.distance == ("==", 1)
    assert not rule.symmetric
    lt = [a for a in rule.conditions if a.op == "lt"]
    assert len(lt) == 1
    assert lt[0].left_slot == lt[0].right_slot == "value"
    assert lt[0].scale == ("poor", "mediocre", "good", "excellent")


def test_termination_rule_parses(hostage):
    rule = [r for r in hostage.relation_specs if r.name == "termination"][0]
    assert rule.axis == "diachronic"
    assert rule.left_type == "start" and rule.right_type == "end"
    assert rule.distance == (">=", 1)
    assert [a.op for a in rule.conditions] == ["eq", "eq"]


def test_relation_unknown_message_type(tmp_path):
    path = write_spec(tmp_path, "concept A\nmessage m(x: A)\n"
                                "relation r axis=synchronic left=m right=q\n")
    onto = load_ontology(path)
    specs = load_message_specs(path, onto)
    with pytest.raises(UnknownMessageType):
        load_relation_specs(path, specs, onto)


def test_relation_unknown_slot(tmp_path):
    path = write_spec(tmp_path, "concept A\nmessage m(x: A)\n"
                                "relation r axis=synchronic left=m right=m "
                                "where left.bogus == right.x\n")
    onto = load_ontology(path)
    specs = load_message_specs(path, onto)
    with pytest.raises(UnknownSlot):
        load_relation_specs(path, specs, onto)


def test_ordered_comparison_needs_scale(tmp_path):
    path = write_spec(tmp_path, "concept A\nmessage m(x: A)\n"
                                "relation r axis=diachronic left=m right=m "
                                "where left.x < right.x\n")
    onto = load_ontology(path)
    specs = load_message_specs(path, onto)
    with pytest.raises(ScaleRequired):
        load_relation_specs(path, specs, onto)


def test_synchronic_distance_rejected(tmp_path):
    path = write_spec(tmp_path, "concept A\nmessage m(x: A)\n"
                                "relation r axis=synchronic left=m right=m distance==1\n")
    onto = load_ontology(path)
    specs = load_message_specs(path, onto)
    with pytest.raises(DslSyntaxError):
        load_relation_specs(path, specs, onto)


def test_diachronic_symmetric_rejected(tmp_path):
    path = write_spec(tmp_path, "concept A\nmessage m(x: A)\n"
                                "relation r axis=diachronic left=m right=m symmetric\n")
    onto = load_ontology(path)
    specs = load_message_specs(path, onto)
    with pytest.raises(DslSyntaxError):
        load_relation_specs(path, specs, onto)


def test_syntax_error_carries_line_and_column(tmp_path):
    path = write_spec(tmp_path, "concept A\ninstance x A\n")
    with pytest.raises(DslSyntaxError) as err:
        load_ontology(path)
    assert err.value.line == 2
    assert err.value.column is not None


def test_conditions_reference_only_declared_slots(football, hostage):
    for bundle in (football, hostage):
        by_name = {m.name: m for m in bundle.message_specs}
        for rule in bundle.relation_specs:
            left = by_name[rule.left_type].slot_names()
            right = by_name[rule.right_type].slot_names()
            for atom in rule.conditions:
                if atom.left_slot is not None and atom.side != "right":
                    assert atom.left_slot in left
                if atom.right_slot is not None and atom.side != "left":
                    assert atom.right_slot in right


def test_round_trip_serialization(tmp_path, football, hostage):
    for bundle in (football, hostage):
        triggers = load_trigger_rules(bundle.spec_path, bundle.message_specs)
        text = dump_domain(bundle.ontology, bundle.message_specs,
                           bundle.relation_specs, triggers)
        path = write_spec(tmp_path, text, name=f"{bundle.root.name}.spec")
        onto = load_ontology(path)
        specs = load_message_specs(path, onto)
        rels = load_relation_specs(path, specs, onto)
        assert (onto.concepts, onto.parent, onto.instances, onto.ordered_scales) \
            == (bundle.ontology.concepts, bundle.ontology.parent,
                bundle.ontology.instances, bundle.ontology.ordered_scales)
        assert specs == bundle.message_specs
        assert rels == bundle.relation_specs
        assert load_trigger_rules(path, specs) == triggers


# The hostage domain with the rule forms its own spec leaves out: a scale,
# a diachronic rule pinned by constants on both sides, rules written
# right-side first (loaded as left-side first, an ordered comparison
# flipped) and a trigger that requires an NE label.
HOSTAGE_VARIANT = """
scale Activity = occupation < ransom < ceasefire
relation occupation_ended axis=diachronic left=start right=end distance>=1 where left.activity == "occupation" && right.activity == "occupation" && right.entity == left.entity
relation escalation axis=synchronic left=demand right=demand where right.about > left.about
relation shift axis=diachronic left=negotiate right=demand distance==1 where right.about < left.about
trigger negotiate on [talk] requires [ORG]
"""


def load_domain(path):
    onto = load_ontology(path)
    specs = load_message_specs(path, onto)
    return (onto, specs, load_relation_specs(path, specs, onto),
            load_trigger_rules(path, specs))


def test_hostage_variant_round_trips_and_relates(tmp_path, hostage):
    text = hostage.spec_path.read_text() + HOSTAGE_VARIANT
    onto, specs, rels, triggers = load_domain(write_spec(tmp_path, text))
    rules = {r.name: r for r in rels}
    assert rules["occupation_ended"].conditions == (
        ConditionAtom(op="const", side="left", value="occupation", left_slot="activity"),
        ConditionAtom(op="const", side="right", value="occupation", right_slot="activity"),
        ConditionAtom(op="eq", left_slot="entity", right_slot="entity"))
    scale = ("occupation", "ransom", "ceasefire")
    assert rules["escalation"].conditions == (
        ConditionAtom(op="lt", left_slot="about", right_slot="about", scale=scale),)
    assert rules["shift"].conditions == (
        ConditionAtom(op="gt", left_slot="about", right_slot="about", scale=scale),)
    assert triggers[-1] == ("negotiate", ("talk",), ("ORG",))

    dumped = load_domain(write_spec(tmp_path, dump_domain(onto, specs, rels, triggers),
                                    name="dumped.spec"))
    assert (dumped[0].concepts, dumped[0].parent, dumped[0].instances,
            dumped[0].ordered_scales) == (onto.concepts, onto.parent,
                                          onto.instances, onto.ordered_scales)
    assert dumped[1:] == (specs, rels, triggers)

    messages = load_gold_messages(hostage.root / "gold_messages.jsonl", specs,
                                  onto, hostage.corpus)
    for days in (0, 1, 3):
        window = WindowPolicy(timedelta(days=days))
        related = evaluate_relations(messages, rels, window)
        assert related == brute_force_oracle(messages, rels, window)
        assert {r.name for r in related} >= {"occupation_ended", "escalation", "shift"}


BASE = "concept A\ninstance a : A\ninstance b : A\nmessage m(x: A, y: A)\n"


def test_trigger_requires_every_listed_label(tmp_path):
    _, _, _, triggers = load_domain(write_spec(
        tmp_path, BASE + "trigger m on [go, went] requires [ORG, PER]\n"))
    assert triggers == [("m", ("go", "went"), ("ORG", "PER"))]


@pytest.mark.parametrize("text, error, detail", [
    (BASE + 'relation r axis=synchronic left=m right=m where left.x == "c"',
     UnknownInstance, "constant 'c' is not an ontology instance"),
    (BASE + "relation r axis=synchronic left=m right=m where left == right.x",
     DslSyntaxError, "expected '.' after side qualifier"),
    (BASE + 'relation r axis=synchronic left=m right=m where left.x != "a"',
     DslSyntaxError, "constant comparisons support == only"),
    (BASE + 'relation r axis=synchronic left=m right=m where left.x == "a',
     DslSyntaxError, "unterminated quote"),
    (BASE + "relation r axis=diachronic left=m right=m distance>=k",
     DslSyntaxError, "expected integer"),
    (BASE + "relation r axis=sideways left=m right=m",
     DslSyntaxError, "axis must be synchronic or diachronic"),
    (BASE + "relation r axis=diachronic left=m right=m distance<2",
     DslSyntaxError, "expected distance==k or distance>=k"),
    (BASE + "scale A = a < b\nscale A = b < a",
     DslSyntaxError, "scale for 'A' redeclared"),
    (BASE + "scale A = a < b < a",
     DslSyntaxError, "scale values must be distinct"),
    (BASE + "message n(x: A, y: A) where left.x != y",
     DslSyntaxError, "message constraints use bare slot names"),
    (BASE + "relation r axis=synchronic left=m right=m where x == right.x",
     DslSyntaxError, "relation conditions must qualify 'x' with left./right."),
    (BASE + "relation r axis=synchronic left=m right=m where left.x == left.y",
     DslSyntaxError, "relation conditions compare left.* against right.*"),
    ("concept A\nconcept B\ninstance a : A\ninstance b : B\n"
     "scale A = a\nscale B = b\nmessage m(x: A, y: B)\n"
     "relation r axis=synchronic left=m right=m where left.x < right.y",
     ScaleRequired, "slots 'x' and 'y' are on different scales"),
    (BASE + "message n(x: A, x: A)",
     DslSyntaxError, "duplicate slot 'x'"),
    (BASE + "trigger n on [go]",
     UnknownMessageType, "trigger references unknown message type 'n'"),
    (BASE + "relation r axis=synchronic left=m right=m where left.x ~ right.x",
     DslSyntaxError, "expected one of ==, !=, <, >"),
    (BASE + "scale Nope = a < b",
     UnknownConcept, "scale names unknown concept 'Nope'"),
], ids=["const-unknown-instance", "side-without-dot", "const-not-eq",
        "unterminated-quote", "distance-not-integer", "axis", "distance-op",
        "scale-redeclared", "scale-repeats", "constraint-qualified",
        "condition-bare", "condition-one-side", "different-scales",
        "duplicate-slot", "trigger-unknown-type", "condition-operator",
        "scale-unknown-concept"])
def test_spec_errors_name_their_line(tmp_path, text, error, detail):
    with pytest.raises(error) as err:
        load_domain(write_spec(tmp_path, text + "\n"))
    assert detail in str(err.value)
    assert err.value.line == text.count("\n") + 1
