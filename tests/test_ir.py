from __future__ import annotations

import ast
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import planwright
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
    NumericEffect,
    ObjectDecl,
    Parameter,
    ProblemInstance,
    Rejected,
    SetEffect,
    TypeDecl,
    apply_edit,
    validate,
    validate_domain,
)
from planwright.data_paths import benchmarks_root
from planwright.domains import blocksworld_domain, blocksworld_problem
from planwright.pddl import parse_domain, parse_problem
from planwright.values import replace

from fractions import Fraction


def diagonal_pddl(objects: int) -> tuple[str, str]:
    """A domain whose one action reads ``(f ?a ?a ?a ?a)`` of a 4-ary numeric
    fluent, and a problem over ``objects`` untyped objects that sets only the
    diagonal of ``f``."""
    domain = """(define (domain diagonal) (:requirements :numeric-fluents)
  (:predicates (q ?a)) (:functions (f ?a ?b ?c ?d))
  (:action go :parameters (?a) :precondition (>= (f ?a ?a ?a ?a) 0) :effect (q ?a)))"""
    names = [f"o{i}" for i in range(objects)]
    init = " ".join(f"(= (f {n} {n} {n} {n}) 1)" for n in names)
    problem = f"(define (problem diagonal) (:domain diagonal) (:objects {' '.join(names)}) (:init {init}) (:goal (q o0)))"
    return domain, problem


# Validates the problem of ``diagonal_pddl`` read from standard input, under a
# 1 GB address-space limit, and prints each violation as (code, message).
DIAGONAL_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from planwright.ir import validate
from planwright.pddl import parse_domain, parse_problem
domain_text, problem_text = json.load(sys.stdin)
report = validate(parse_problem(problem_text, parse_domain(domain_text)))
print(json.dumps([[v.code, v.message] for v in report]))
"""


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

    def test_uninitialized_numeric_is_one_violation_per_fluent(self):
        # The diagonal of (f ?a ?a ?a ?a) is set; 81 - 3 instances are not,
        # the first of them in product order over the sorted object names.
        domain_text, problem_text = diagonal_pddl(3)
        report = validate(parse_problem(problem_text, parse_domain(domain_text)))
        assert [(v.code, v.message) for v in report] == [
            ("uninitialized-numeric", "numeric atom (f o0 o0 o0 o1) is used but has no initial value (78 of 81 instances of f have none)")
        ]

    def test_uninitialized_numeric_count_ignores_duplicates_and_values_outside_the_types(self):
        # o1 is declared twice and counts once; the value of (g o0 t1) lies
        # outside the product of (g ?a - thing ?b - thing), which stays
        # empty only at (g o1 o0) and (g o1 o1).
        domain_text = """(define (domain d) (:requirements :typing :numeric-fluents)
  (:types thing other) (:predicates (q))
  (:functions (g ?a - thing ?b - thing))
  (:action go :parameters (?a - thing ?b - thing) :precondition (>= (g ?a ?b) 0) :effect (q)))"""
        problem_text = """(define (problem p) (:domain d) (:objects o0 o1 - thing t1 - other)
  (:init (= (g o0 o0) 1) (= (g o0 o1) 1) (= (g o0 t1) 1)) (:goal (q)))"""
        parsed = parse_problem(problem_text, parse_domain(domain_text))
        problem = replace(parsed, objects=parsed.objects + (ObjectDecl("o1", "thing"),))
        messages = [v.message for v in validate(problem) if v.code == "uninitialized-numeric"]
        assert messages == ["numeric atom (g o1 o0) is used but has no initial value (2 of 4 instances of g have none)"]

    def test_uninitialized_numeric_check_is_bounded(self):
        from helpers import run_python

        # The child runs under its own limit, so a regression fails this test
        # and not the machine: 30 objects leave 809,970 instances unset.
        proc = run_python(DIAGONAL_CHILD, stdin=json.dumps(diagonal_pddl(30)), timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == [
            ["uninitialized-numeric", "numeric atom (f o0 o0 o0 o1) is used but has no initial value (809970 of 810000 instances of f have none)"]
        ]

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

    @staticmethod
    def tank(step: Fraction, start: Fraction = Fraction(0), goal_level: Fraction = Fraction(1)) -> ProblemInstance:
        level = NumFluent("level")
        fill = ActionSchema("fill", (), And(()), (NumericEffect("increase", level, NumConst(step)),))
        domain = DomainModel("tank", fluents=(FluentDecl("level", kind="numeric"),), actions=(fill,))
        goal = Comparison(">=", level, NumConst(goal_level))
        return ProblemInstance(domain, (), Assignment.create(numeric={level: start}), goal)

    @pytest.mark.parametrize("value", [Fraction(1), Fraction(-7, 4), Fraction(3, 20), Fraction(1, 1024)])
    def test_decimal_constants_are_valid(self, value):
        assert validate(self.tank(value, value, value)) == []

    def test_constant_without_decimal_form_in_domain(self):
        problem = self.tank(Fraction(1, 3))
        report = validate_domain(problem.domain)
        assert [v.code for v in report] == ["no-decimal-form"]
        assert "1/3" in report[0].message and "effects of fill" in report[0].message
        assert validate(problem) == report

    def test_value_without_decimal_form_in_init_and_goal(self):
        report = validate(self.tank(Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)))
        assert [v.code for v in report] == ["no-decimal-form"] * 2
        assert "initial value 2/3 of (level)" in report[0].message
        assert "5/6 in goal" in report[1].message

    def test_decimal_places_matches_the_emitter(self):
        from planwright.ir import decimal_places
        from planwright.pddl import PddlEmitError, format_fraction

        for den in range(1, 41):
            value = Fraction(7, den)
            places = decimal_places(value)
            if places is None:
                with pytest.raises(PddlEmitError):
                    format_fraction(value)
                with pytest.raises(PddlEmitError):
                    str(NumConst(value))
            else:
                text = format_fraction(value)
                assert Fraction(text) == value
                assert len(text.partition(".")[2]) == places
                assert str(NumConst(value)) == text


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

    def test_rejected_fluent_gets_the_edited_domains_report(self, bw3):
        tint = FluentDecl("tint", (Parameter("?b", "block"), Parameter("?b", "colour")))
        result = apply_edit(bw3.domain, bw3.objects, AddOrModifyFluent(tint, provenance="goal-generator"))
        edited = replace(bw3.domain, fluents=bw3.domain.fluents + (tint,))
        assert result.outcome == Rejected("type-conflict", "; ".join(str(v) for v in validate_domain(edited)))
        assert result.domain == bw3.domain

    def test_rejected_action_gets_the_edited_domains_report(self, bw3):
        precondition = Atom("holding", ("?b1", "?b2"))
        result = apply_edit(bw3.domain, bw3.objects, ModifyAction("stack", precondition, None, provenance="goal-generator"))
        stack = replace(bw3.domain.action_map()["stack"], precondition=precondition)
        edited = replace(bw3.domain, actions=tuple(stack if a.name == "stack" else a for a in bw3.domain.actions))
        message = "; ".join(str(v) for v in validate_domain(edited))
        assert result.outcome == Rejected("type-conflict", message)
        assert "in precondition of stack" in message
        assert result.domain == bw3.domain

    @pytest.mark.parametrize(
        "precondition",
        [Atom("colour", ("?zz",)), Atom("holding", ("?b1", "?zz"))],
        ids=["undeclared-fluent", "wrong-arity"],
    )
    def test_unbound_variable_inside_a_rejected_application_rejects(self, bw3, precondition):
        result = apply_edit(bw3.domain, bw3.objects, ModifyAction("stack", precondition, None, provenance="goal-generator"))
        assert isinstance(result.outcome, Rejected)
        assert result.outcome.reason == "type-conflict"
        assert result.domain == bw3.domain

    def test_unbound_variable_in_replacement_effect_raises(self, bw3):
        effects = (SetEffect(Atom("holding", ("?zz",))),)
        with pytest.raises(MalformedEditError, match="unbound-variable"):
            apply_edit(bw3.domain, bw3.objects, ModifyAction("stack", None, effects, provenance="goal-generator"))

    @pytest.mark.parametrize(
        "added, reason",
        [
            ((ObjectDecl("b9", "colour"), ObjectDecl("b1", "block")), "type-conflict"),
            ((ObjectDecl("b1", "block"), ObjectDecl("b9", "colour")), "duplicate-object"),
            ((ObjectDecl("b1", "colour"),), "duplicate-object"),
        ],
        ids=["type-first", "duplicate-first", "same-object"],
    )
    def test_object_rejection_follows_edit_order(self, bw3, added, reason):
        result = apply_edit(bw3.domain, bw3.objects, AddObjects(added, provenance="init-generator"))
        assert isinstance(result.outcome, Rejected)
        assert result.outcome.reason == reason
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


def test_only_validate_reads_its_private_names():
    """``ir/validate.py`` alone decides whether a domain or object set is well
    formed: no other module imports its ``_``-prefixed names."""
    root = Path(planwright.__file__).parent
    own = root / "ir" / "validate.py"
    offenders = []
    for path in sorted(root.rglob("*.py")):
        package = list(path.relative_to(root.parent).parent.parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            if module == "planwright.ir.validate" and path != own:
                offenders += [f"{path.relative_to(root)}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []


class TestJsonCodec:
    def test_domain_round_trip(self, bw3):
        from planwright.ir import jsonio
        from planwright.domains import battery_grippers_domain, household_domain

        for domain in (bw3.domain, battery_grippers_domain(), household_domain()):
            data = domain.to_json()
            assert DomainModel.from_json(data) == domain

    def test_problem_round_trip_and_determinism(self, bw3):
        from planwright.ir import jsonio

        data = bw3.to_json()
        assert jsonio.problem_from_json(data) == bw3
        assert jsonio.dumps(data) == jsonio.dumps(bw3.to_json())

    def test_numeric_values_survive_as_exact_rationals(self):
        from planwright.ir.model import term_from_json

        term = term_from_json({"op": "const", "value": "3/2"})
        assert term.value == Fraction(3, 2)
        assert term.to_json() == {"op": "const", "value": "3/2"}

    def test_decode_errors_are_reported(self):
        from planwright.ir import jsonio
        from planwright.ir.model import expression_from_json, term_from_json

        with pytest.raises(jsonio.IRDecodeError):
            expression_from_json({"op": "xor", "children": []})
        with pytest.raises(jsonio.IRDecodeError):
            term_from_json({"op": "const", "value": "one half"})
        with pytest.raises(jsonio.IRDecodeError, match="must be int or str"):
            term_from_json({"op": "const", "value": 2.5})
        with pytest.raises(jsonio.IRDecodeError, match="'kind' must be str"):
            FluentDecl.from_json({"name": "f", "kind": 5})


def _json_depth(value) -> int:
    """How deep the lists and objects of a decoded JSON value nest."""
    if isinstance(value, dict):
        return 1 + max(map(_json_depth, value.values()), default=0)
    if isinstance(value, list):
        return 1 + max(map(_json_depth, value), default=0)
    return 0


def _nested_object(depth: int) -> str:
    """An object whose one member holds lists, ``depth`` levels in all."""
    return '{"a": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"


class TestJsonDepth:
    """`read_object` rejects a document nested past `MAX_JSON_DEPTH` with
    `IRDecodeError`, before `json.loads` can recurse out of the stack."""

    def test_at_the_limit_and_one_over(self):
        from planwright.ir.jsonio import MAX_JSON_DEPTH, IRDecodeError, read_object

        assert _json_depth(read_object(_nested_object(MAX_JSON_DEPTH))) == MAX_JSON_DEPTH
        for depth in (MAX_JSON_DEPTH + 1, 1001, 5000):
            with pytest.raises(IRDecodeError, match=f"JSON nests more than {MAX_JSON_DEPTH} deep"):
                read_object(_nested_object(depth))
        with pytest.raises(IRDecodeError, match="nests more than"):
            read_object("```json\n" + _nested_object(MAX_JSON_DEPTH + 1) + "\n```")

    def test_integer_past_the_digit_limit_is_a_decode_error(self):
        """`json.loads` raises a bare `ValueError` for an integer literal
        longer than the interpreter's int-string limit (4,300 digits)."""
        from planwright.ir.jsonio import IRDecodeError, read_object

        with pytest.raises(IRDecodeError, match="digits"):
            read_object('{"a": ' + "1" * 5000 + "}")

    def test_brackets_inside_strings_do_not_count(self):
        from planwright.ir.jsonio import MAX_JSON_DEPTH, read_object

        # Escaped quotes and backslashes must not end a string early.
        strings = {"open": "[" * 1000, "quoted": '\\"{' * 500, "slash": "\\", "close": "]}" * 500}
        text = json.dumps({**strings, "deep": json.loads(_nested_object(MAX_JSON_DEPTH - 1))})
        data = read_object(text)
        assert _json_depth(data) == MAX_JSON_DEPTH
        assert {key: data[key] for key in strings} == strings

    def test_expression_at_the_pddl_limit_round_trips(self):
        from planwright.ir import jsonio
        from planwright.pddl.syntax import MAX_DEPTH

        # `and` takes two JSON levels per list, the most of any node: the
        # precondition's innermost `(p)` lies MAX_DEPTH lists deep.
        ands = MAX_DEPTH - 3
        domain = parse_domain(
            "(define (domain deep) (:predicates (p) (q))\n"
            f"  (:action a :parameters () :precondition {'(and ' * ands}(p){')' * ands} :effect (q)))"
        )
        problem = parse_problem("(define (problem deep-1) (:domain deep) (:init (p)) (:goal (q)))", domain)
        text = jsonio.dumps(problem.to_json())
        assert _json_depth(json.loads(text)) == 2 * MAX_DEPTH
        assert jsonio.problem_from_json(jsonio.read_object(text)) == problem
        assert DomainModel.from_json(jsonio.read_object(jsonio.dumps(domain))) == domain


_ODD_STRINGS = st.sampled_from(['"', "\\", "\x00", "\x1f\x7f", "\n\t\r", " ", "é ß", "\U0001f600", ""])
_ODD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),
    _ODD_FLOATS,
    st.text(),
    _ODD_STRINGS,
)
_KEYS = st.one_of(st.text(), _ODD_STRINGS, st.integers(), st.floats(), _ODD_FLOATS, st.booleans(), st.none())
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=25,
)


def _first_bundled_problems() -> list[ProblemInstance]:
    """The first bundled problem of each benchmark domain."""
    problems = []
    for domain_dir in sorted(p for p in benchmarks_root().iterdir() if p.is_dir()):
        domain = parse_domain((domain_dir / "domain.pddl").read_text(encoding="utf-8"))
        first = min(p for p in domain_dir.glob("*.pddl") if p.name != "domain.pddl")
        problems.append(parse_problem(first.read_text(encoding="utf-8"), domain, filename=first.name))
    return problems


# Names and text that a splice would break if a newline inside a string were
# not escaped, or if quotes or non-ASCII text were written raw.
_ODD_TYPE = 'bl\u00f6ck\n"x"'
_ODD_FLUENT = 'on\n"top"'
_ODD_DOMAIN = DomainModel(
    'odd "domain"\n\u00e9\U0001f600',
    types=(TypeDecl(_ODD_TYPE),),
    fluents=(FluentDecl(_ODD_FLUENT, (Parameter("?a", _ODD_TYPE),), description='line one\nline "two" \u2013 \u00df\r\n'),),
    actions=(
        ActionSchema(
            'lift\t"\u00e9"',
            (Parameter("?a", _ODD_TYPE),),
            Atom(_ODD_FLUENT, ("?a",)),
            (SetEffect(Atom(_ODD_FLUENT, ("?a",)), False),),
        ),
    ),
)
_ODD_PROBLEM = ProblemInstance(
    _ODD_DOMAIN,
    (ObjectDecl('b\n"1"', _ODD_TYPE),),
    Assignment.create([Atom(_ODD_FLUENT, ('b\n"1"',))]),
    Atom(_ODD_FLUENT, ('b\n"1"',)),
    name='odd\n"problem" \u00e9',
)
_IR_PROBLEMS = _first_bundled_problems() + [_ODD_PROBLEM]
_IR_VALUES = st.sampled_from([p.domain for p in _IR_PROBLEMS] + _IR_PROBLEMS)
_IR_DOCUMENTS = st.recursive(
    st.one_of(_IR_VALUES, _LEAVES),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEYS, children, max_size=3),
    ),
    max_leaves=8,
)


def _plain(document):
    """``document`` with every domain and problem replaced by its JSON value."""
    from planwright.ir import jsonio

    if isinstance(document, DomainModel):
        return document.to_json()
    if isinstance(document, ProblemInstance):
        return document.to_json()
    if isinstance(document, (list, tuple)):
        return [_plain(item) for item in document]
    if isinstance(document, dict):
        return {key: _plain(item) for key, item in document.items()}
    return document


class TestDumps:
    """`jsonio.dumps` is `json.dumps(x, indent=2) + "\\n"`, byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(_DOCUMENTS)
    def test_matches_json_dumps(self, document):
        from planwright.ir import jsonio

        assert jsonio.dumps(document) == json.dumps(document, indent=2) + "\n"

    @pytest.mark.parametrize(
        "document",
        [[], {}, (), [[]], {"a": {}}, [(), {}], {"k": [1, {"n": None}]}, {1: "i", 1.5: "f", True: "b", None: "n"}],
    )
    def test_shapes(self, document):
        from planwright.ir import jsonio

        assert jsonio.dumps(document) == json.dumps(document, indent=2) + "\n"

    @pytest.mark.parametrize(
        "document",
        [Fraction(1, 3), {1, 2}, b"bytes", [1, {"x": Fraction(1, 2)}], {"x": {"y"}}, {(1, 2): 1}, {Fraction(1, 2): 1}],
        ids=["fraction", "set", "bytes", "nested-fraction", "nested-set", "tuple-key", "fraction-key"],
    )
    def test_unsupported_value_is_type_error(self, document):
        from planwright.ir import jsonio

        with pytest.raises(TypeError):
            json.dumps(document, indent=2)
        with pytest.raises(TypeError):
            jsonio.dumps(document)

    @settings(max_examples=300, deadline=None)
    @given(_IR_DOCUMENTS)
    def test_splices_domains_and_problems_at_any_depth(self, document):
        from planwright.ir import jsonio

        assert jsonio.dumps(document) == json.dumps(_plain(document), indent=2) + "\n"

    def test_changed_domain_encodes_its_new_content(self, bw3):
        from planwright.ir import jsonio

        old_text = jsonio.dumps(bw3.domain)
        edit = AddOrModifyFluent(FluentDecl("color", (Parameter("?b", "block"),)), provenance="goal-generator")
        edited = apply_edit(bw3.domain, bw3.objects, edit).domain
        renamed = replace(bw3.domain, name="renamed")
        moved = replace(bw3, domain=edited)
        for value in (edited, renamed, moved):
            assert jsonio.dumps(value) == json.dumps(_plain(value), indent=2) + "\n"
        assert jsonio.dumps(edited) != old_text
        assert jsonio.dumps(renamed) != old_text
        assert '"color"' in jsonio.dumps(moved)

    def test_encoding_leaves_equality_hash_and_repr(self, bw3):
        from planwright.ir import jsonio

        twin = blocksworld_problem("bw3", [["b1"], ["b2"], ["b3"]], [["b3", "b2", "b1"]])
        before = [(hash(v), repr(v)) for v in (bw3, bw3.domain)]
        jsonio.dumps({"problem": bw3, "domain": bw3.domain})
        assert [(hash(v), repr(v)) for v in (bw3, bw3.domain)] == before
        assert bw3 == twin and bw3.domain == twin.domain
        assert hash(bw3) == hash(twin) and repr(bw3) == repr(twin)
