from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from planwright.ir import (
    ActionSchema,
    AddObjects,
    AddOrModifyFluent,
    And,
    Applied,
    Assignment,
    Atom,
    Comparison,
    DomainModel,
    FluentDecl,
    MalformedEditError,
    ModifyAction,
    NumConst,
    NumFluent,
    ObjectDecl,
    Parameter,
    ProblemInstance,
    Rejected,
    SetEffect,
    TypeDecl,
    apply_edit,
    ground_atoms,
    validate,
    validate_domain,
)
from planwright.domains import blocksworld_domain, blocksworld_problem

from fractions import Fraction


@pytest.fixture
def bw3():
    return blocksworld_problem("bw3", [["b1"], ["b2"], ["b3"]], [["b3", "b2", "b1"]])


class TestValidate:
    def test_valid_blocksworld_is_clean(self, bw3):
        assert validate(bw3) == []

    def test_goal_with_undeclared_fluent(self, bw3):
        bad = ProblemInstance(
            domain=bw3.domain,
            objects=bw3.objects,
            init=bw3.init,
            goal=Atom("color", ("b1", "b2")),
        )
        report = validate(bad)
        assert [v.code for v in report] == ["unknown-fluent"]

    def test_empty_domain_empty_goal(self):
        problem = ProblemInstance(domain=DomainModel("empty"), goal=And(()))
        assert validate(problem) == []

    @pytest.mark.parametrize(
        "mutate, code",
        [
            (lambda p: ProblemInstance(p.domain, p.objects + (ObjectDecl("b1", "block"),), p.init, p.goal), "duplicate-object"),
            (lambda p: ProblemInstance(p.domain, p.objects + (ObjectDecl("x", "slab"),), p.init, p.goal), "unknown-type"),
            (lambda p: ProblemInstance(p.domain, p.objects, Assignment.create(list(p.init.true_atoms) + [Atom("on", ("b1",))]), p.goal), "arity-mismatch"),
            (lambda p: ProblemInstance(p.domain, p.objects, p.init, Atom("on", ("b1", "b9"))), "unknown-object"),
            (lambda p: ProblemInstance(p.domain, p.objects, p.init, Atom("on", ("b1", "?x"))), "unbound-variable"),
            (lambda p: ProblemInstance(p.domain, p.objects, p.init, Comparison("<", NumFluent("on", ("b1", "b2")), NumConst(Fraction(1)))), "kind-mismatch"),
        ],
    )
    def test_single_injected_violation_is_reported(self, bw3, mutate, code):
        report = validate(mutate(bw3))
        assert code in {v.code for v in report}

    def test_uninitialized_numeric_atom(self):
        domain = DomainModel(
            "batt",
            types=(TypeDecl("robot"),),
            fluents=(FluentDecl("charge", (Parameter("?r", "robot"),), kind="numeric"),),
            actions=(
                ActionSchema(
                    "sip",
                    (Parameter("?r", "robot"),),
                    And(()),
                    (SetEffect(Atom("noop", ())),),
                ),
            ),
        )
        domain = DomainModel(
            domain.name,
            domain.types,
            domain.fluents + (FluentDecl("noop", ()),),
            domain.actions,
        )
        problem = ProblemInstance(
            domain=domain,
            objects=(ObjectDecl("r1", "robot"),),
            goal=Comparison(">=", NumFluent("charge", ("r1",)), NumConst(Fraction(10))),
        )
        report = validate(problem)
        assert {v.code for v in report} == {"uninitialized-numeric"}

    @pytest.mark.parametrize(
        "domain, code",
        [
            (DomainModel("d", types=(TypeDecl("a"), TypeDecl("a"))), "duplicate-type"),
            (DomainModel("d", types=(TypeDecl("a", parent="ghost"),)), "unknown-type"),
            (DomainModel("d", types=(TypeDecl("a", parent="b"), TypeDecl("b", parent="a"))), "type-cycle"),
            (DomainModel("d", fluents=(FluentDecl("p"), FluentDecl("p"))), "duplicate-fluent"),
            (DomainModel("d", fluents=(FluentDecl("p", (Parameter("?x"), Parameter("?x"))),)), "duplicate-parameter"),
            (DomainModel("d", fluents=(FluentDecl("p", kind="fuzzy"),)), "bad-kind"),
            (DomainModel("d", actions=(ActionSchema("a"), ActionSchema("a"))), "duplicate-action"),
        ],
    )
    def test_domain_level_violations_reported(self, domain, code):
        assert code in {v.code for v in validate_domain(domain)}

    def test_conflicting_effect_detected(self):
        domain = DomainModel(
            "d",
            fluents=(FluentDecl("p", ()),),
            actions=(
                ActionSchema("a", (), And(()), (SetEffect(Atom("p")), SetEffect(Atom("p"), False))),
            ),
        )
        assert "conflicting-effect" in {v.code for v in validate_domain(domain)}

    def test_unbound_variable_in_precondition(self):
        domain = DomainModel(
            "d",
            fluents=(FluentDecl("p", (Parameter("?x", "object"),)),),
            actions=(ActionSchema("a", (), Atom("p", ("?x",)), ()),),
        )
        assert "unbound-variable" in {v.code for v in validate_domain(domain)}


class TestApplyEdit:
    def test_add_color_fluent(self, bw3):
        edit = AddOrModifyFluent(
            FluentDecl("color", (Parameter("?b", "block"), Parameter("?v", "object")), description="block color tag"),
            provenance="goal-generator",
        )
        result = apply_edit(bw3.domain, bw3.objects, edit)
        assert isinstance(result.outcome, Applied)
        assert "color" in result.domain.fluent_map()
        assert result.domain is not bw3.domain

    def test_duplicate_identical_fluent_rejected(self, bw3):
        existing = bw3.domain.fluent_map()["clear"]
        result = apply_edit(bw3.domain, bw3.objects, AddOrModifyFluent(existing, provenance="init-generator"))
        assert isinstance(result.outcome, Rejected)
        assert result.outcome.reason == "duplicate-fluent"
        assert result.domain == bw3.domain

    def test_signature_conflict_rejected(self, bw3):
        clash = FluentDecl("clear", (Parameter("?b", "block"), Parameter("?x", "block")))
        result = apply_edit(bw3.domain, bw3.objects, AddOrModifyFluent(clash, provenance="goal-generator"))
        assert isinstance(result.outcome, Rejected)
        assert result.domain == bw3.domain

    def test_modify_stack_with_size_comparison(self, bw3):
        with_size = apply_edit(
            bw3.domain,
            bw3.objects,
            AddOrModifyFluent(FluentDecl("size", (Parameter("?b", "object"),), kind="numeric"), provenance="goal-generator"),
        )
        assert with_size.applied
        stack = with_size.domain.action_map()["stack"]
        new_pre = And(
            stack.precondition.children
            + (Comparison("<", NumFluent("size", ("?b1",)), NumFluent("size", ("?b2",))),)
        )
        result = apply_edit(
            with_size.domain,
            bw3.objects,
            ModifyAction("stack", new_pre, None, provenance="goal-generator"),
        )
        assert result.applied
        assert ":numeric-fluents" in result.domain.requirements

    def test_modify_unknown_action(self, bw3):
        result = apply_edit(bw3.domain, bw3.objects, ModifyAction("fly", Atom("arm-empty"), None, provenance="goal-generator"))
        assert isinstance(result.outcome, Rejected)
        assert result.outcome.reason == "unknown-action"

    def test_unbound_variable_in_replacement_raises(self, bw3):
        with pytest.raises(MalformedEditError):
            apply_edit(bw3.domain, bw3.objects, ModifyAction("stack", Atom("holding", ("?zz",)), None, provenance="goal-generator"))
        # and the domain object is untouched by construction (immutability)
        assert "stack" in bw3.domain.action_map()

    def test_empty_provenance_raises(self, bw3):
        with pytest.raises(MalformedEditError):
            apply_edit(bw3.domain, bw3.objects, AddObjects((ObjectDecl("b9", "block"),), provenance=""))

    def test_add_objects(self, bw3):
        result = apply_edit(bw3.domain, bw3.objects, AddObjects((ObjectDecl("b4", "block"),), provenance="init-generator"))
        assert result.applied
        assert "b4" in {o.name for o in result.objects}
        assert result.domain == bw3.domain

    def test_add_duplicate_object_rejected(self, bw3):
        result = apply_edit(bw3.domain, bw3.objects, AddObjects((ObjectDecl("b1", "block"),), provenance="init-generator"))
        assert isinstance(result.outcome, Rejected)
        assert result.outcome.reason == "duplicate-object"
        assert result.objects == bw3.objects

    @given(st.permutations(["shade", "weight"]))
    def test_independent_fluent_edits_commute(self, order):
        domain = blocksworld_domain()
        edits = {
            name: AddOrModifyFluent(FluentDecl(name, (Parameter("?b", "block"),)), provenance="test")
            for name in order
        }
        current = domain
        for name in order:
            current = apply_edit(current, (), edits[name]).domain
        other = domain
        for name in reversed(order):
            other = apply_edit(other, (), edits[name]).domain
        assert current == other


class TestJsonCodec:
    def test_domain_round_trip(self, bw3):
        from planwright.ir import jsonio
        from planwright.domains import battery_grippers_domain, household_domain

        for domain in (bw3.domain, battery_grippers_domain(), household_domain()):
            data = jsonio.domain_to_json(domain)
            assert jsonio.domain_from_json(data) == domain

    def test_problem_round_trip_and_determinism(self, bw3):
        from planwright.ir import jsonio

        data = jsonio.problem_to_json(bw3)
        assert jsonio.problem_from_json(data) == bw3
        assert jsonio.dumps(data) == jsonio.dumps(jsonio.problem_to_json(bw3))

    def test_numeric_values_survive_as_exact_rationals(self):
        from planwright.ir import jsonio

        term = jsonio.term_from_json({"op": "const", "value": "3/2"})
        assert term.value == Fraction(3, 2)
        assert jsonio.term_to_json(term) == {"op": "const", "value": "3/2"}

    def test_edit_round_trip(self, bw3):
        from planwright.ir import jsonio

        edits = [
            AddOrModifyFluent(FluentDecl("color", (Parameter("?b", "block"),)), "goal"),
            ModifyAction("stack", Atom("arm-empty"), None, "goal"),
            AddObjects((ObjectDecl("b9", "block"),), "initial-state"),
        ]
        for edit in edits:
            assert jsonio.edit_from_json(jsonio.edit_to_json(edit)) == edit

    def test_decode_errors_are_reported(self):
        from planwright.ir import jsonio

        with pytest.raises(jsonio.IRDecodeError):
            jsonio.expression_from_json({"op": "xor", "children": []})
        with pytest.raises(jsonio.IRDecodeError):
            jsonio.term_from_json({"op": "const", "value": "one half"})
        with pytest.raises(jsonio.IRDecodeError, match="must be int or str"):
            jsonio.term_from_json({"op": "const", "value": 2.5})
        with pytest.raises(jsonio.IRDecodeError, match="'kind' must be str"):
            jsonio.fluent_from_json({"name": "f", "kind": 5})


class TestGroundAtoms:
    def test_two_block_on_enumeration(self):
        domain = DomainModel(
            "d",
            types=(TypeDecl("block"),),
            fluents=(FluentDecl("on", (Parameter("?a", "block"), Parameter("?b", "block"))),),
        )
        objs = (ObjectDecl("b1", "block"), ObjectDecl("b2", "block"))
        grounded = ground_atoms(domain, objs)
        assert grounded.booleans == (
            Atom("on", ("b1", "b1")),
            Atom("on", ("b1", "b2")),
            Atom("on", ("b2", "b1")),
            Atom("on", ("b2", "b2")),
        )

    def test_no_objects_of_type(self):
        domain = DomainModel(
            "d",
            types=(TypeDecl("block"), TypeDecl("robot")),
            fluents=(FluentDecl("held-by", (Parameter("?b", "block"), Parameter("?r", "robot"))),),
        )
        grounded = ground_atoms(domain, (ObjectDecl("b1", "block"),))
        assert grounded.booleans == ()

    def test_typed_pairs(self):
        domain = DomainModel(
            "d",
            types=(TypeDecl("robot"), TypeDecl("place")),
            fluents=(FluentDecl("at", (Parameter("?r", "robot"), Parameter("?p", "place"))),),
        )
        objs = (ObjectDecl("r1", "robot"), ObjectDecl("p1", "place"), ObjectDecl("p2", "place"))
        grounded = ground_atoms(domain, objs)
        assert len(grounded.booleans) == 2

    def test_ground_atoms_typecheck(self, bw3):
        grounded = ground_atoms(bw3.domain, bw3.objects)
        for atom in grounded.booleans:
            probe = ProblemInstance(bw3.domain, bw3.objects, bw3.init, goal=atom)
            assert validate(probe) == []
