from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import battery_grippers_domain, nested_domain_text, reference_read_forms
from planwright.data_paths import benchmarks_root
from planwright.domains import blocksworld_domain, blocksworld_problem, grippers_problem
from scenarios import household_problem
from planwright.ir import (
    ActionSchema,
    AddOrModifyFluent,
    And,
    Assignment,
    Atom,
    Comparison,
    DomainModel,
    FluentDecl,
    ModifyAction,
    Not,
    NumAdd,
    NumConst,
    NumericEffect,
    NumFluent,
    NumSub,
    ObjectDecl,
    Or,
    Parameter,
    ProblemInstance,
    SetEffect,
    TypeDecl,
    apply_edit,
)
from planwright.pddl import (
    PddlError,
    emit_domain,
    emit_expression,
    emit_problem,
    format_fraction,
    parse_domain,
    parse_plan,
    parse_problem,
    render_plan,
)
from planwright.pddl.syntax import LEXICAL_ERROR, MAX_DEPTH, TOO_DEEP, UNBALANCED, read_forms
from planwright.planner import ground
from planwright.planner.grounding import to_dnf_branches, to_nnf

SIZE_DOMAIN_TEXT = """
(define (domain blocksworld)
  (:requirements :strips :typing :numeric-fluents)
  (:types block - object)
  (:predicates
    (arm-empty)
    (clear ?b - block)
    (holding ?b - block)
    (on ?b1 - block ?b2 - block)
    (on-table ?b - block))
  (:functions (size ?b))
  (:action stack
    :parameters (?b1 ?b2 - block)
    :precondition (and (holding ?b1) (clear ?b2) (< (size ?b1) (size ?b2)))
    :effect (and (clear ?b1) (on ?b1 ?b2) (arm-empty) (not (holding ?b1)) (not (clear ?b2))))
)
"""


def sized_blocksworld():
    base = blocksworld_domain()
    with_size = apply_edit(
        base,
        (),
        AddOrModifyFluent(FluentDecl("size", (Parameter("?b", "object"),), kind="numeric"), provenance="test"),
    ).domain
    stack = with_size.action_map()["stack"]
    new_pre = And(stack.precondition.children + (Comparison("<", NumFluent("size", ("?b1",)), NumFluent("size", ("?b2",))),))
    return apply_edit(with_size, (), ModifyAction("stack", new_pre, None, provenance="test")).domain


class TestDomainCodec:
    def test_size_extended_text_parses(self):
        domain = parse_domain(SIZE_DOMAIN_TEXT)
        assert domain.fluent_map()["size"].kind == "numeric"
        stack = domain.action_map()["stack"]
        assert "(< (size ?b1) (size ?b2))" in emit_domain(domain)
        assert isinstance(stack.precondition, And)

    def test_sized_blocksworld_emits_expected_fragments(self):
        text = emit_domain(sized_blocksworld())
        assert ":numeric-fluents" in text
        assert "(:functions (size ?b))" in text
        assert "(< (size ?b1) (size ?b2))" in text

    def test_base_blocksworld_has_no_numeric_flag(self):
        text = emit_domain(blocksworld_domain())
        assert ":strips :typing" in text
        assert ":numeric-fluents" not in text

    def test_empty_domain(self):
        domain = parse_domain("(define (domain d) (:requirements :strips))")
        assert domain.actions == ()
        assert domain.name == "d"

    def test_durative_action_is_unsupported(self):
        text = "(define (domain d) (:durative-action walk))"
        with pytest.raises(PddlError) as err:
            parse_domain(text)
        assert err.value.code == "unsupported-feature"
        assert err.value.line == 1

    def test_unknown_requirement(self):
        with pytest.raises(PddlError) as err:
            parse_domain("(define (domain d) (:requirements :strips :telepathy))")
        assert err.value.code == "unknown-requirement"

    def test_unbalanced(self):
        with pytest.raises(PddlError) as err:
            parse_domain("(define (domain d)")
        assert err.value.code == "unbalanced-parentheses"

    def test_lexical_error_beats_earlier_unmatched_paren(self):
        with pytest.raises(PddlError) as err:
            parse_domain("(a))\x00")
        assert err.value.code == "lexical-error"

    def test_unmatched_paren_position(self):
        with pytest.raises(PddlError) as err:
            parse_domain("(a))")
        assert (err.value.code, err.value.line, err.value.col) == ("unbalanced-parentheses", 1, 4)

    def test_unprintable_character_reported_at_its_column(self):
        with pytest.raises(PddlError) as err:
            parse_domain("(define\n  (ab\x01c))")
        assert (err.value.code, err.value.line, err.value.col) == ("lexical-error", 2, 6)

    def test_either_types_unsupported(self):
        text = "(define (domain d) (:types a b - (either c d)))"
        with pytest.raises(PddlError) as err:
            parse_domain(text)
        assert err.value.code == "unsupported-feature"

    def test_round_trip_fixpoint(self):
        for domain in (blocksworld_domain(), battery_grippers_domain(), sized_blocksworld()):
            text = emit_domain(domain)
            parsed = parse_domain(text)
            assert parsed == domain
            assert emit_domain(parsed) == text

    def test_case_insensitive(self):
        domain = parse_domain("(define (domain D) (:requirements :STRIPS) (:predicates (P ?X)))")
        assert domain.name == "d"
        assert "p" in domain.fluent_map()

    @given(st.binary(max_size=200))
    def test_parser_never_crashes_without_span(self, blob):
        try:
            parse_domain(blob.decode("utf-8", errors="replace"))
        except PddlError as err:
            assert err.line >= 1 and err.col >= 1
        except RecursionError:
            pytest.fail("parser recursion blowup")


class TestProblemCodec:
    def test_init_closed_world(self):
        domain = blocksworld_domain()
        text = """
        (define (problem p) (:domain blocksworld)
          (:objects b1 b2 - block)
          (:init (on b1 b2))
          (:goal (and)))
        """
        problem = parse_problem(text, domain)
        assert problem.init.true_atoms == frozenset({Atom("on", ("b1", "b2"))})

    def test_numeric_init(self):
        domain = battery_grippers_domain()
        text = """
        (define (problem p) (:domain grippers-battery)
          (:objects robot1 - robot room1 - room)
          (:init (at-robby robot1 room1) (= (battery_level robot1) 100))
          (:goal (and)))
        """
        problem = parse_problem(text, domain)
        assert problem.init.numeric_map()[NumFluent("battery_level", ("robot1",))] == Fraction(100)

    def test_non_ascii_digits_are_not_a_number(self):
        domain = battery_grippers_domain()
        text = """
        (define (problem p) (:domain grippers-battery)
          (:objects robot1 - robot room1 - room)
          (:init (= (battery_level robot1) \u0663\u0660))
          (:goal (and)))
        """
        with pytest.raises(PddlError) as err:
            parse_problem(text, domain)
        assert err.value.message == "expected a number, got '\u0663\u0660'"

    def test_trivial_goal(self):
        domain = blocksworld_domain()
        problem = parse_problem("(define (problem p) (:domain blocksworld) (:goal (and)))", domain)
        assert problem.goal == And(())

    def test_undeclared_object_has_span(self):
        domain = blocksworld_domain()
        text = "(define (problem p) (:domain blocksworld)\n  (:init (on-table b7))\n  (:goal (and)))"
        with pytest.raises(PddlError) as err:
            parse_problem(text, domain)
        assert err.value.code == "undeclared-name"
        assert err.value.line == 2

    def test_object_declared_twice(self):
        domain = blocksworld_domain()
        text = "(define (problem p) (:domain blocksworld) (:objects b1 b2 - block b1 - block) (:goal (and)))"
        with pytest.raises(PddlError) as err:
            parse_problem(text, domain)
        assert err.value.code == "syntax-error"
        assert err.value.message == "object b1 declared twice"

    def test_init_before_objects_is_undeclared(self):
        domain = blocksworld_domain()
        text = "(define (problem p) (:domain blocksworld) (:init (on-table b1)) (:objects b1 - block) (:goal (and)))"
        with pytest.raises(PddlError) as err:
            parse_problem(text, domain)
        assert err.value.code == "undeclared-name"
        assert err.value.message == "object b1 is not declared"

    def test_undeclared_goal_fluent(self):
        domain = blocksworld_domain()
        text = "(define (problem p) (:domain blocksworld) (:objects b1 - block) (:goal (shiny b1)))"
        with pytest.raises(PddlError) as err:
            parse_problem(text, domain)
        assert err.value.code == "undeclared-name"

    def test_problem_round_trip(self):
        for problem in (
            blocksworld_problem("p1", [["b1", "b2"], ["b3"]], [["b3", "b1"], ["b2"]]),
            grippers_problem("g1", rooms=2, robots=1, ball_rooms={"ball1": "room1"}, goal_rooms={"ball1": "room2"}),
            household_problem(),
        ):
            text = emit_problem(problem)
            parsed = parse_problem(text, problem.domain)
            assert parsed == problem
            assert emit_problem(parsed) == text

    def test_universal_typed_object_before_typed_run_stays_annotated(self):
        # a bare run is only legal at the end of a typed list
        from planwright.ir import And, Assignment, Atom, ObjectDecl, ProblemInstance

        problem = ProblemInstance(
            blocksworld_domain(),
            (ObjectDecl("apple", "object"), ObjectDecl("b1", "block")),
            Assignment.create([Atom("arm-empty"), Atom("on-table", ("b1",)), Atom("clear", ("b1",))]),
            And(()),
            "edge",
        )
        text = emit_problem(problem)
        assert "(:objects apple - object b1 - block)" in text
        assert parse_problem(text, problem.domain) == problem

    def test_emission_deterministic(self):
        a = blocksworld_problem("p", [["b1"], ["b2"]], [["b1", "b2"]])
        b = blocksworld_problem("p", [["b2"], ["b1"]], [["b1", "b2"]])
        # same logical content entered in different order
        assert emit_problem(a) == emit_problem(b)


_BUNDLED_TEXTS = [path.read_text(encoding="utf-8") for path in sorted(benchmarks_root().glob("*/*.pddl"))]
_MUTANT_CHARS = ["(", ")", ";", "\n", "\t", "\r", "\x00", "\xa0", "\x0b"]


@st.composite
def bundled_mutants(draw):
    """A bundled domain or problem file with characters inserted, spans
    deleted, or the tail cut off."""
    text = draw(st.sampled_from(_BUNDLED_TEXTS))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "truncate"]))
        if edit == "insert":
            text = text[:at] + draw(st.sampled_from(_MUTANT_CHARS)) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + draw(st.integers(min_value=1, max_value=8)):]
        else:
            text = text[:at]
    return text


def _read_outcome(reader, text: str):
    try:
        return reader(text, "mutant.pddl")
    except PddlError as err:
        return (err.code, err.message, err.line, err.col)


class TestReaderAgainstReference:
    def test_bundled_files_read_alike(self):
        assert len(_BUNDLED_TEXTS) == 147
        for text in _BUNDLED_TEXTS:
            assert read_forms(text) == reference_read_forms(text)

    @settings(max_examples=200, deadline=None)
    @given(bundled_mutants())
    def test_mutants_read_alike(self, text):
        assert _read_outcome(read_forms, text) == _read_outcome(reference_read_forms, text)


_AT_LIMIT = nested_domain_text(MAX_DEPTH)
_TOO_DEEP = nested_domain_text(MAX_DEPTH + 1)


class TestDepthLimit:
    @pytest.mark.parametrize(
        "text, code",
        [
            (_AT_LIMIT, None),
            (_TOO_DEEP, TOO_DEEP),
            (nested_domain_text(3000), TOO_DEEP),
            (_TOO_DEEP + "\x00", LEXICAL_ERROR),
            (")" + _TOO_DEEP, UNBALANCED),
            (_TOO_DEEP + ")", TOO_DEEP),
            (_TOO_DEEP[:-3], TOO_DEEP),
        ],
        ids=["at-limit", "one-over", "3000-deep", "then-lexical", "after-unmatched", "then-unmatched", "then-unclosed"],
    )
    def test_reader_agrees_with_reference(self, text, code):
        outcome = _read_outcome(read_forms, text)
        assert outcome == _read_outcome(reference_read_forms, text)
        assert (outcome[0] if isinstance(outcome, tuple) else None) == code
        if code == TOO_DEEP:
            # At the '(' of the first list past the limit; the precondition,
            # five characters a list, starts 3 deep.
            line = text.splitlines()[3]
            start = line.index(":precondition ") + len(":precondition ")
            assert outcome[2:] == (4, start + 5 * (MAX_DEPTH - 2) + 1)

    def test_walkers_handle_a_domain_at_the_limit(self):
        from planwright.ir import validate, validate_domain

        domain = parse_domain(_AT_LIMIT)
        precondition = domain.actions[0].precondition
        assert str(precondition).count("(not ") == MAX_DEPTH - 3
        assert parse_domain(emit_domain(domain)) == domain
        assert to_nnf(precondition) == Not(Atom("p"))
        assert to_dnf_branches(to_nnf(precondition)) == [[Not(Atom("p"))]]
        assert validate_domain(domain) == []
        problem = parse_problem("(define (problem deep-1) (:domain deep) (:init) (:goal (q)))", domain)
        assert validate(problem) == []
        assert [a.name for a in ground(problem).actions] == ["a"]


class TestPlanText:
    def test_call_style(self):
        plan = parse_plan("move(pos-0-1, pos-0-2, h0)")
        assert plan.steps[0].name == "move"
        assert plan.steps[0].args == ("pos-0-1", "pos-0-2", "h0")

    def test_empty(self):
        assert parse_plan("").steps == ()

    def test_sexp_style(self):
        plan = parse_plan("(pick-up b1)")
        assert plan.steps == (parse_plan("pick-up(b1)").steps[0],)

    def test_numbered_lines_accepted(self):
        plan = parse_plan("1. pick-up(b1)\n2. stack(b1, b2)\n")
        assert len(plan.steps) == 2

    def test_non_ascii_step_number_is_not_stripped(self):
        with pytest.raises(PddlError) as err:
            parse_plan("\u0661. (pick-up b1)")
        assert err.value.code == "malformed-step"

    def test_malformed_step_has_line(self):
        with pytest.raises(PddlError) as err:
            parse_plan("pick-up(b1)\n???")
        assert err.value.line == 2
        assert err.value.code == "malformed-step"

    def test_render_parse_round_trip(self):
        plan = parse_plan("pick-up(b1)\nstack(b1, b2)")
        assert parse_plan(render_plan(plan)) == plan


_NAMES = st.sampled_from(["alpha", "beta", "gamma", "delta", "omega"])


@st.composite
def random_domains(draw):
    """Small well-typed domains: fluents over universal-typed parameters so
    any action binding is type-consistent."""
    from fractions import Fraction as F

    from planwright.ir import (
        ActionSchema,
        And,
        Atom,
        Comparison,
        DomainModel,
        FluentDecl,
        Not,
        NumConst,
        NumFluent,
        NumericEffect,
        Parameter,
        SetEffect,
        TypeDecl,
    )

    type_names = draw(st.lists(_NAMES, unique=True, max_size=2))
    bool_fluents = draw(st.lists(st.sampled_from(["p", "q", "r"]), unique=True, min_size=1, max_size=3))
    num_fluents = draw(st.lists(st.sampled_from(["f", "g"]), unique=True, max_size=2))
    arity = {name: draw(st.integers(min_value=0, max_value=2)) for name in bool_fluents + num_fluents}

    def decl(name, kind):
        params = tuple(Parameter(f"?x{i}") for i in range(arity[name]))
        return FluentDecl(name, params, kind=kind)

    fluents = tuple(decl(n, "boolean") for n in bool_fluents) + tuple(decl(n, "numeric") for n in num_fluents)

    def application(names, node, param_names):
        name = draw(st.sampled_from(names))
        args = tuple(draw(st.sampled_from(param_names)) for _ in range(arity[name]))
        return node(name, args)

    actions = []
    for action_name in draw(st.lists(st.sampled_from(["go", "do", "fix"]), unique=True, max_size=2)):
        params = tuple(Parameter(f"?v{i}") for i in range(draw(st.integers(min_value=arity_max(arity), max_value=3))))
        param_names = [p.name for p in params] or None
        if param_names is None:
            continue
        literals = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            atom = application(bool_fluents, Atom, param_names)
            literals.append(Not(atom) if draw(st.booleans()) else atom)
        if num_fluents and draw(st.booleans()):
            literals.append(
                Comparison(
                    draw(st.sampled_from(["<", "<=", "=", ">=", ">"])),
                    application(num_fluents, NumFluent, param_names),
                    NumConst(F(draw(st.integers(min_value=-5, max_value=5)))),
                )
            )
        effects = []
        seen = set()
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            atom = application(bool_fluents, Atom, param_names)
            if atom in seen:
                continue
            seen.add(atom)
            effects.append(SetEffect(atom, draw(st.booleans())))
        if num_fluents and draw(st.booleans()):
            effects.append(
                NumericEffect(
                    draw(st.sampled_from(["increase", "decrease", "assign"])),
                    application(num_fluents, NumFluent, param_names),
                    NumConst(F(draw(st.integers(min_value=0, max_value=9)))),
                )
            )
        actions.append(ActionSchema(action_name, params, And(tuple(literals)), tuple(effects)))

    return DomainModel("fuzz", tuple(TypeDecl(t) for t in type_names), fluents, tuple(actions))


def arity_max(arity: dict) -> int:
    return max(arity.values()) if arity else 0


@settings(max_examples=120, deadline=None)
@given(random_domains())
def test_random_domain_round_trip(domain):
    from planwright.ir import validate_domain

    conflicts = [v for v in validate_domain(domain) if v.code == "conflicting-effect"]
    if conflicts:
        return  # generator may set an atom both ways; not a codec concern
    assert validate_domain(domain) == []
    text = emit_domain(domain)
    parsed = parse_domain(text)
    assert parsed == domain
    assert emit_domain(parsed) == text


def test_diagnostic_render_format():
    with pytest.raises(PddlError) as err:
        parse_domain("(define (domain d)\n  (:durative-action walk))", filename="broken.pddl")
    assert err.value.render() == "broken.pddl:2:3: unsupported-feature: :durative-action is not supported"


def test_format_fraction():
    assert format_fraction(Fraction(30)) == "30"
    assert format_fraction(Fraction(3, 2)) == "1.5"
    assert format_fraction(Fraction(-7, 4)) == "-1.75"


def tank_problem(typed: bool) -> ProblemInstance:
    """A small numeric problem whose domain and goal use every node kind."""
    tank = "tank" if typed else "object"
    t = Parameter("?t", tank)
    level, flow = NumFluent("level", ("?t",)), NumFluent("flow")
    half_more = NumConst(Fraction(3, 2))
    fill = ActionSchema(
        "fill",
        (t,),
        And((
            Atom("open", ("?t",)),
            Not(Atom("broken", ("?t",))),
            Comparison("<=", NumAdd(level, half_more), NumSub(NumFluent("capacity", ("?t",)), flow)),
        )),
        (NumericEffect("increase", level, half_more), SetEffect(Atom("ready"), False)),
    )
    drain = ActionSchema(
        "drain",
        (t, Parameter("?u", tank)),
        Or((Atom("open", ("?t",)), Atom("ready"))),
        (
            NumericEffect("decrease", level, flow),
            NumericEffect("assign", flow, NumSub(flow, NumConst(Fraction(1)))),
            SetEffect(Atom("ready")),
        ),
    )
    fluents = (
        FluentDecl("open", (t,)),
        FluentDecl("broken", (t,)),
        FluentDecl("ready"),
        FluentDecl("level", (t,), "numeric"),
        FluentDecl("capacity", (t,), "numeric"),
        FluentDecl("flow", (), "numeric"),
    )
    domain = DomainModel("tanks", (TypeDecl("tank"),) if typed else (), fluents, (fill, drain, ActionSchema("wait")))
    numeric = {
        NumFluent("level", ("t1",)): Fraction(0),
        NumFluent("level", ("t2",)): Fraction(9, 4),
        NumFluent("capacity", ("t1",)): Fraction(5),
        NumFluent("capacity", ("t2",)): Fraction(5),
        NumFluent("flow"): Fraction(1),
    }
    goal = And((
        Comparison(">=", NumFluent("level", ("t1",)), NumConst(Fraction(3, 2))),
        Not(Atom("broken", ("t2",))),
        Or((Atom("ready"), Atom("open", ("t2",)))),
    ))
    objects = (ObjectDecl("t2", tank), ObjectDecl("t1", tank))
    init = Assignment.create([Atom("open", ("t1",)), Atom("ready")], numeric)
    return ProblemInstance(domain, objects, init, goal, "fill-two")


TANKS_DOMAIN_TEXT = """\
(define (domain tanks)
  (:requirements :strips :typing :negative-preconditions :disjunctive-preconditions :numeric-fluents)
  (:types tank - object)
  (:predicates
    (broken ?t - tank)
    (open ?t - tank)
    (ready))
  (:functions (capacity ?t - tank) (flow) (level ?t - tank))
  (:action drain
    :parameters (?t ?u - tank)
    :precondition (or (open ?t) (ready))
    :effect (and (decrease (level ?t) (flow)) (assign (flow) (- (flow) 1)) (ready)))
  (:action fill
    :parameters (?t - tank)
    :precondition (and (open ?t) (not (broken ?t)) (<= (+ (level ?t) 1.5) (- (capacity ?t) (flow))))
    :effect (and (increase (level ?t) 1.5) (not (ready))))
  (:action wait
    :parameters ()
    :precondition (and)
    :effect (and))
)
"""

UNTYPED_TANKS_DOMAIN_TEXT = """\
(define (domain tanks)
  (:requirements :strips :negative-preconditions :disjunctive-preconditions :numeric-fluents)
  (:predicates
    (broken ?t)
    (open ?t)
    (ready))
  (:functions (capacity ?t) (flow) (level ?t))
  (:action drain
    :parameters (?t ?u)
    :precondition (or (open ?t) (ready))
    :effect (and (decrease (level ?t) (flow)) (assign (flow) (- (flow) 1)) (ready)))
  (:action fill
    :parameters (?t)
    :precondition (and (open ?t) (not (broken ?t)) (<= (+ (level ?t) 1.5) (- (capacity ?t) (flow))))
    :effect (and (increase (level ?t) 1.5) (not (ready))))
  (:action wait
    :parameters ()
    :precondition (and)
    :effect (and))
)
"""

TANKS_GOAL_TEXT = "(and (>= (level t1) 1.5) (not (broken t2)) (or (ready) (open t2)))"

TANKS_PROBLEM_TEXT = """\
(define (problem fill-two)
  (:domain tanks)
  (:objects t1 t2 - tank)
  (:init
    (open t1)
    (ready)
    (= (capacity t1) 5)
    (= (capacity t2) 5)
    (= (flow) 1)
    (= (level t1) 0)
    (= (level t2) 2.25))
  (:goal (and (>= (level t1) 1.5) (not (broken t2)) (or (ready) (open t2))))
)
"""


class TestEmittedText:
    """The exact text of every node kind, each requirement flag and both
    object layouts, pinned so the emitter can be restructured safely."""

    def test_typed_domain_and_problem(self):
        problem = tank_problem(typed=True)
        assert emit_domain(problem.domain) == TANKS_DOMAIN_TEXT
        assert emit_problem(problem) == TANKS_PROBLEM_TEXT
        assert emit_expression(problem.goal) == TANKS_GOAL_TEXT
        assert parse_problem(TANKS_PROBLEM_TEXT, parse_domain(TANKS_DOMAIN_TEXT)) == problem

    def test_untyped_domain_and_problem(self):
        problem = tank_problem(typed=False)
        assert emit_domain(problem.domain) == UNTYPED_TANKS_DOMAIN_TEXT
        assert emit_problem(problem) == TANKS_PROBLEM_TEXT.replace("(:objects t1 t2 - tank)", "(:objects t1 t2)")
        assert emit_expression(problem.goal) == TANKS_GOAL_TEXT
        assert parse_domain(UNTYPED_TANKS_DOMAIN_TEXT) == problem.domain

    def test_empty_domain_and_problem(self):
        problem = ProblemInstance(DomainModel("empty"), name="nothing")
        assert emit_domain(problem.domain) == "(define (domain empty)\n  (:requirements :strips)\n)\n"
        assert emit_problem(problem) == "(define (problem nothing)\n  (:domain empty)\n  (:init)\n  (:goal (and))\n)\n"
        assert emit_expression(problem.goal) == "(and)"
