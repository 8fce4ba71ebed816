"""Tests for the mini-C lexer and parser."""

import pickle

import pytest

from repro.frontend import LexerError, ParseError, ast, compile_source, parse_program, tokenize


def test_tokenize_basic_program():
    tokens = tokenize("int f(int x) { return x + 1; }")
    kinds = [t.kind for t in tokens]
    texts = [t.text for t in tokens]
    assert kinds[0] == "keyword" and texts[0] == "int"
    assert "ident" in kinds
    assert texts[-2] == "}"
    assert kinds[-1] == "eof"


def test_tokenize_multicharacter_operators():
    tokens = tokenize("a <= b && c != d || e >= f")
    ops = [t.text for t in tokens if t.kind == "op"]
    assert ops == ["<=", "&&", "!=", "||", ">="]


def test_tokenize_comments_and_lines():
    tokens = tokenize("int a; // comment\n/* block\ncomment */ int b;")
    idents = [t.text for t in tokens if t.kind == "ident"]
    assert idents == ["a", "b"]


def test_tokenize_rejects_garbage():
    with pytest.raises(LexerError):
        tokenize("int a = @;")
    with pytest.raises(LexerError):
        tokenize("/* never closed")


@pytest.mark.parametrize("source, character, line, column", [
    ("int f(void) { return 1\u00b2; }", "\u00b2", 1, 23),   # superscript two
    ("int f(void) {\n  return \u0663;\n}", "\u0663", 2, 10),  # Arabic-Indic three
])
def test_non_ascii_digits_are_lexer_errors(source, character, line, column):
    # Integer literals are ASCII: a digit such as "²" is a bad character, not
    # part of a literal that int() would later reject (or silently accept).
    with pytest.raises(LexerError) as info:
        compile_source(source)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == "unexpected character {!r} (line {}, column {})".format(
        character, line, column)


def test_parse_function_with_parameters():
    program = parse_program("void ins(int* v, int N) { }")
    assert len(program.functions) == 1
    function = program.functions[0]
    assert function.name == "ins"
    assert function.return_type.base == "void"
    assert [p.name for p in function.parameters] == ["v", "N"]
    assert function.parameters[0].type_spec.pointer_depth == 1


def test_parse_declarations_and_loops():
    source = """
    int sum(int* v, int n) {
        int i, total = 0;
        for (i = 0; i < n; i++) {
            total += v[i];
        }
        return total;
    }
    """
    program = parse_program(source)
    body = program.functions[0].body
    assert isinstance(body.statements[0], ast.DeclarationStmt)
    assert len(body.statements[0].declarators) == 2
    assert isinstance(body.statements[1], ast.ForStmt)
    assert isinstance(body.statements[2], ast.ReturnStmt)


def test_parse_if_else_and_while():
    source = """
    int f(int a, int b) {
        while (a < b) {
            if (a > 0) { a = a - 1; } else { b = b - 1; }
        }
        return a;
    }
    """
    program = parse_program(source)
    loop = program.functions[0].body.statements[0]
    assert isinstance(loop, ast.WhileStmt)
    branch = loop.body.statements[0]
    assert isinstance(branch, ast.IfStmt)
    assert branch.else_branch is not None


def test_parse_operator_precedence():
    program = parse_program("int f() { return 1 + 2 * 3 < 10; }")
    expr = program.functions[0].body.statements[0].value
    # (1 + (2*3)) < 10
    assert isinstance(expr, ast.BinaryExpr) and expr.op == "<"
    assert isinstance(expr.lhs, ast.BinaryExpr) and expr.lhs.op == "+"
    assert isinstance(expr.lhs.rhs, ast.BinaryExpr) and expr.lhs.rhs.op == "*"


def test_parse_index_deref_and_calls():
    program = parse_program("int f(int* p) { return p[2] + *p + g(p, 1); }")
    expr = program.functions[0].body.statements[0].value
    assert isinstance(expr, ast.BinaryExpr)
    assert isinstance(expr.rhs, ast.CallExpr)
    assert expr.rhs.callee == "g"
    assert len(expr.rhs.arguments) == 2


def test_parse_for_with_comma_and_increments():
    source = "void f(int N) { int i; int j; for (i = 0, j = N; i < j; i++, j--) { } }"
    program = parse_program(source)
    loop = program.functions[0].body.statements[2]
    assert isinstance(loop, ast.ForStmt)
    assert isinstance(loop.init, ast.ExpressionStmt)
    assert isinstance(loop.init.expression, ast.BinaryExpr)
    assert loop.init.expression.op == ","
    assert isinstance(loop.step, ast.BinaryExpr)


def test_parse_prefix_increment_desugars_to_compound_assignment():
    program = parse_program("void f(int x) { ++x; --x; x++; }")
    statements = program.functions[0].body.statements
    for statement in statements:
        assert isinstance(statement.expression, ast.AssignExpr)
    assert statements[0].expression.op == "+="
    assert statements[1].expression.op == "-="


def test_parse_errors_are_reported_with_position():
    with pytest.raises(ParseError, match="line"):
        parse_program("int f( { }")
    with pytest.raises(ParseError):
        parse_program("int f() { return 1 }")
    with pytest.raises(ParseError):
        parse_program("int f() { int a[n]; }")
    with pytest.raises(ParseError):
        parse_program("int 3() { }")


@pytest.mark.parametrize("source,error_type,position", [
    ("int f( { }", ParseError, (1, 8)),
    ("int f() {\n  return 1 @ 2;\n}", LexerError, (2, 12)),
])
def test_frontend_errors_round_trip_through_pickle(source, error_type,
                                                   position):
    # Worker pools pickle exceptions back to the coordinator; an error that
    # cannot be rebuilt kills the pool's result thread and hangs the run.
    with pytest.raises(error_type) as info:
        compile_source(source)
    clone = pickle.loads(pickle.dumps(info.value))
    assert type(clone) is error_type
    assert str(clone) == str(info.value)
    assert clone.message == info.value.message
    assert (clone.line, clone.column) == position


def test_program_function_lookup():
    program = parse_program("int a() { return 1; } int b() { return 2; }")
    assert program.function("a") is not None
    assert program.function("missing") is None
