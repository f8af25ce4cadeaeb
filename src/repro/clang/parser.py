"""Recursive-descent parser for the C subset used by MPI numerical codes.

The grammar covers what actually appears in MPI domain-decomposition programs:
preprocessor includes/defines (preserved verbatim), global declarations,
typedefs, struct definitions, function definitions, the full statement set
(compound/if/while/do/for/switch/return/break/continue/goto/label), and the C
expression grammar with correct precedence, calls, casts, subscripts, member
access, pointers and the ternary operator.

Two parsing modes exist:

* ``tolerant=True`` (default) — recoverable errors are recorded as
  diagnostics and parsing continues by skipping to a synchronisation point.
  This mirrors the paper's reliance on TreeSitter's error tolerance for live
  advising on incomplete code.
* ``tolerant=False`` — the first error raises :class:`ParseError`.  The corpus
  inclusion filter uses this mode (the paper uses a strict pycparser pass for
  the same purpose).
"""

from __future__ import annotations

from . import ast_nodes as ast
from .errors import ParseDiagnostic, ParseError
from .lexer import code_tokens, tokenize
from .tokens import Token, TokenKind, TokenStream

#: Base type keywords that can start a declaration.
_TYPE_KEYWORDS = {
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "_Bool", "bool", "struct", "union", "enum", "const",
    "volatile", "static", "extern", "register", "inline", "restrict",
}

#: Well-known typedef names that appear in MPI programs.  Treating these as
#: types keeps the declaration/expression disambiguation simple without a full
#: symbol table for typedefs.
_KNOWN_TYPEDEFS = {
    "size_t", "ssize_t", "ptrdiff_t", "FILE", "time_t", "clock_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "MPI_Comm", "MPI_Status", "MPI_Request", "MPI_Datatype", "MPI_Op",
    "MPI_Group", "MPI_Win", "MPI_File", "MPI_Info", "MPI_Aint", "MPI_Offset",
}

#: Assignment operators.
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: Binary operator -> precedence level (higher binds tighter).  Every C
#: binary operator is left-associative; assignment and ``?:`` are parsed
#: above this table.
_BINARY_LEVEL = {op: level for level, ops in enumerate([
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]) for op in ops}


class Parser:
    """Parse a token stream into a :class:`repro.clang.ast_nodes.TranslationUnit`."""

    def __init__(self, stream: TokenStream, *, tolerant: bool = True,
                 directives: list[Token] | None = None) -> None:
        self.stream = stream
        self.tolerant = tolerant
        self.directives = directives or []
        self.diagnostics: list[ParseDiagnostic] = []
        self.typedef_names: set[str] = set(_KNOWN_TYPEDEFS)

    # ------------------------------------------------------------------ api

    def parse(self) -> ast.TranslationUnit:
        """Parse the whole stream and return the translation unit."""
        unit = ast.TranslationUnit()
        # Preprocessor directives, preserved in source-line order.
        for d in self.directives:
            unit.items.append(ast.Include(text=d.text, line=d.line))

        while not self.stream.at_end():
            before = self.stream.index
            item = self._parse_external()
            if item is not None:
                unit.items.append(item)
            if self.stream.index == before:
                # no progress — skip one token to avoid an infinite loop
                bad = self.stream.next()
                self._error(f"unexpected token {bad.text!r}", bad)

        unit.items.sort(key=lambda n: n.line if n.line else 0)
        return unit

    # ------------------------------------------------------------ utilities

    def _error(self, message: str, token: Token) -> None:
        if self.tolerant:
            self.diagnostics.append(ParseDiagnostic(message, token.line, token.column))
        else:
            raise ParseError(message, token.line, token.column)

    def _expect_punct(self, text: str) -> Token:
        tok = self.stream.peek()
        if tok.is_punct(text):
            return self.stream.next()
        self._error(f"expected {text!r} but found {tok.text!r}", tok)
        return tok

    def _accept_punct(self, text: str) -> bool:
        if self.stream.peek().is_punct(text):
            self.stream.next()
            return True
        return False

    def _is_type_start(self, tok: Token) -> bool:
        if tok.kind is TokenKind.KEYWORD and tok.text in _TYPE_KEYWORDS:
            return True
        if tok.kind is TokenKind.IDENTIFIER and tok.text in self.typedef_names:
            return True
        return False

    def _skip_to(self, *puncts: str) -> None:
        """Skip tokens until one of ``puncts`` (consumed) or EOF; used for recovery."""
        depth = 0
        while not self.stream.at_end():
            tok = self.stream.peek()
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                if depth == 0 and "}" in puncts:
                    self.stream.next()
                    return
                depth = max(0, depth - 1)
            elif depth == 0 and tok.kind is TokenKind.PUNCT and tok.text in puncts:
                self.stream.next()
                return
            self.stream.next()

    # ------------------------------------------------------------ top level

    def _parse_external(self) -> ast.Node | None:
        tok = self.stream.peek()

        if tok.is_keyword("typedef"):
            return self._parse_typedef()

        if tok.is_keyword("struct", "union", "enum") and self.stream.peek(2).is_punct("{"):
            # struct definition possibly followed by ';'
            return self._parse_struct_definition()

        if self._is_type_start(tok):
            return self._parse_declaration_or_function()

        if tok.kind is TokenKind.IDENTIFIER:
            # Unknown return type (e.g. a project typedef) — try function/decl anyway.
            return self._parse_declaration_or_function()

        self._error(f"unexpected token {tok.text!r} at top level", tok)
        self.stream.next()
        return None

    def _parse_typedef(self) -> ast.TypedefDecl:
        start = self.stream.next()  # 'typedef'
        type_parts: list[str] = []
        while not self.stream.peek().is_punct(";") and not self.stream.at_end():
            type_parts.append(self.stream.next().text)
        self._accept_punct(";")
        alias = type_parts[-1] if type_parts else "anonymous"
        base = " ".join(type_parts[:-1]) if len(type_parts) > 1 else "int"
        self.typedef_names.add(alias)
        return ast.TypedefDecl(type_name=base, alias=alias, line=start.line)

    def _parse_struct_definition(self) -> ast.StructDef:
        start = self.stream.next()  # struct/union/enum
        name: str | None = None
        if self.stream.peek().kind is TokenKind.IDENTIFIER:
            name = self.stream.next().text
        fields: list[ast.Declaration] = []
        if self._accept_punct("{"):
            while not self.stream.peek().is_punct("}") and not self.stream.at_end():
                before = self.stream.index
                decl = self._parse_declaration()
                if decl is not None:
                    fields.append(decl)
                if self.stream.index == before:
                    self.stream.next()
            self._expect_punct("}")
        self._accept_punct(";")
        if name:
            self.typedef_names.add(name)
        return ast.StructDef(name=name, fields=fields, line=start.line)

    def _parse_type_specifier(self) -> tuple[str, str | None]:
        """Consume type specifier keywords and return (type_name, storage)."""
        parts: list[str] = []
        storage: str | None = None
        while True:
            tok = self.stream.peek()
            if tok.is_keyword("static", "extern", "register", "inline"):
                storage = tok.text
                self.stream.next()
                continue
            if tok.is_keyword("const", "volatile", "restrict", "signed", "unsigned",
                              "short", "long", "void", "char", "int", "float",
                              "double", "_Bool", "bool"):
                parts.append(self.stream.next().text)
                continue
            if tok.is_keyword("struct", "union", "enum"):
                parts.append(self.stream.next().text)
                if self.stream.peek().kind is TokenKind.IDENTIFIER:
                    parts.append(self.stream.next().text)
                continue
            if tok.kind is TokenKind.IDENTIFIER and tok.text in self.typedef_names and not parts:
                parts.append(self.stream.next().text)
                continue
            break
        if not parts:
            parts.append("int")
        return " ".join(parts), storage

    def _parse_declaration_or_function(self) -> ast.Node | None:
        start = self.stream.peek()
        mark = self.stream.mark()
        type_name, storage = self._parse_type_specifier()

        pointer = 0
        while self._accept_punct("*"):
            pointer += 1

        name_tok = self.stream.peek()
        if name_tok.kind is not TokenKind.IDENTIFIER:
            self.stream.commit()
            self._error(f"expected identifier after type, found {name_tok.text!r}", name_tok)
            self._skip_to(";", "}")
            return None
        self.stream.next()

        # Function definition / prototype?
        if self.stream.peek().is_punct("("):
            self.stream.commit()
            return self._parse_function_rest(type_name, name_tok.text, pointer, start.line)

        # Otherwise it is a declaration — rewind and reparse uniformly.
        self.stream.reset()
        return self._parse_declaration()

    def _parse_function_rest(self, return_type: str, name: str, pointer: int,
                             line: int) -> ast.Node | None:
        self._expect_punct("(")
        params: list[ast.ParamDecl] = []
        if not self.stream.peek().is_punct(")"):
            while True:
                params.append(self._parse_param())
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")

        if self._accept_punct(";"):
            # Prototype — represent as a declaration with no initialiser.
            decl = ast.Declaration(
                type_name=return_type,
                declarators=[ast.Declarator(name=name, pointer=pointer, line=line)],
                line=line,
            )
            return decl

        if not self.stream.peek().is_punct("{"):
            self._error("expected function body", self.stream.peek())
            self._skip_to(";", "}")
            return None

        body = self._parse_compound()
        return ast.FunctionDef(
            return_type=return_type, name=name, params=params, body=body,
            pointer=pointer, line=line,
        )

    def _parse_param(self) -> ast.ParamDecl:
        start = self.stream.peek()
        if start.is_punct("..."):
            self.stream.next()
            return ast.ParamDecl(type_name="...", name=None, line=start.line)
        type_name, _ = self._parse_type_specifier()
        pointer = 0
        while self._accept_punct("*"):
            pointer += 1
        name: str | None = None
        if self.stream.peek().kind is TokenKind.IDENTIFIER:
            name = self.stream.next().text
        array = False
        while self.stream.peek().is_punct("["):
            array = True
            self.stream.next()
            while not self.stream.peek().is_punct("]") and not self.stream.at_end():
                self.stream.next()
            self._accept_punct("]")
        return ast.ParamDecl(type_name=type_name, name=name, pointer=pointer,
                             array=array, line=start.line)

    # ---------------------------------------------------------- declarations

    def _parse_declaration(self) -> ast.Declaration | None:
        start = self.stream.peek()
        type_name, storage = self._parse_type_specifier()
        declarators: list[ast.Declarator] = []
        while True:
            decl = self._parse_declarator()
            if decl is None:
                break
            declarators.append(decl)
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        if not declarators:
            return None
        return ast.Declaration(type_name=type_name, declarators=declarators,
                               storage=storage, line=start.line)

    def _parse_declarator(self) -> ast.Declarator | None:
        pointer = 0
        while self._accept_punct("*"):
            pointer += 1
        tok = self.stream.peek()
        if tok.kind is not TokenKind.IDENTIFIER:
            self._error(f"expected declarator name, found {tok.text!r}", tok)
            return None
        name = self.stream.next().text
        line = tok.line

        array_dims: list[ast.Node | None] = []
        while self._accept_punct("["):
            if self.stream.peek().is_punct("]"):
                array_dims.append(None)
            else:
                array_dims.append(self._parse_expression())
            self._expect_punct("]")

        init: ast.Node | None = None
        if self._accept_punct("="):
            if self.stream.peek().is_punct("{"):
                init = self._parse_init_list()
            else:
                init = self._parse_assignment_expr()

        return ast.Declarator(name=name, pointer=pointer, array_dims=array_dims,
                              init=init, line=line)

    def _parse_init_list(self) -> ast.InitList:
        start = self._expect_punct("{")
        values: list[ast.Node] = []
        while not self.stream.peek().is_punct("}") and not self.stream.at_end():
            if self.stream.peek().is_punct("{"):
                values.append(self._parse_init_list())
            else:
                values.append(self._parse_assignment_expr())
            if not self._accept_punct(","):
                break
        self._expect_punct("}")
        return ast.InitList(values=values, line=start.line)

    # ------------------------------------------------------------ statements

    def _parse_compound(self) -> ast.Compound:
        start = self._expect_punct("{")
        block = ast.Compound(line=start.line)
        while not self.stream.peek().is_punct("}") and not self.stream.at_end():
            before = self.stream.index
            stmt = self._parse_statement()
            if stmt is not None:
                block.statements.append(stmt)
            if self.stream.index == before:
                self.stream.next()
        self._expect_punct("}")
        return block

    def _parse_statement(self) -> ast.Node | None:
        tok = self.stream.peek()

        if tok.is_punct("{"):
            return self._parse_compound()
        if tok.is_punct(";"):
            self.stream.next()
            return ast.ExpressionStatement(expr=None, line=tok.line)
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("do"):
            return self._parse_do_while()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("switch"):
            return self._parse_switch()
        if tok.is_keyword("return"):
            self.stream.next()
            value = None
            if not self.stream.peek().is_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return ast.Return(value=value, line=tok.line)
        if tok.is_keyword("break"):
            self.stream.next()
            self._expect_punct(";")
            return ast.Break(line=tok.line)
        if tok.is_keyword("continue"):
            self.stream.next()
            self._expect_punct(";")
            return ast.Continue(line=tok.line)
        if tok.is_keyword("goto"):
            self.stream.next()
            label = self.stream.next().text
            self._expect_punct(";")
            return ast.Goto(label=label, line=tok.line)
        if tok.is_keyword("case", "default"):
            return self._parse_case()
        if tok.kind is TokenKind.IDENTIFIER and self.stream.peek(1).is_punct(":"):
            self.stream.next()
            self.stream.next()
            return ast.Label(name=tok.text, line=tok.line)
        if tok.is_keyword("typedef"):
            return self._parse_typedef()
        if self._is_type_start(tok) and not tok.is_keyword("struct") or (
            tok.is_keyword("struct") and self.stream.peek(2).kind is TokenKind.IDENTIFIER
        ):
            if self._looks_like_declaration():
                return self._parse_declaration()

        # Fallback: an expression statement.
        expr = self._parse_expression()
        self._expect_punct(";")
        return ast.ExpressionStatement(expr=expr, line=tok.line)

    def _looks_like_declaration(self) -> bool:
        """Speculatively decide whether the upcoming tokens form a declaration."""
        tok = self.stream.peek()
        if not self._is_type_start(tok):
            return False
        # A type keyword always starts a declaration in statement position.
        if tok.kind is TokenKind.KEYWORD:
            return True
        # identifier identifier  -> typedef-name declaration
        nxt = self.stream.peek(1)
        return nxt.kind is TokenKind.IDENTIFIER or nxt.is_punct("*")

    def _parse_if(self) -> ast.If:
        start = self.stream.next()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement() or ast.Compound(line=start.line)
        otherwise: ast.Node | None = None
        if self.stream.peek().is_keyword("else"):
            self.stream.next()
            otherwise = self._parse_statement()
        return ast.If(cond=ast.Parenthesized(cond, line=start.line), then=then,
                      otherwise=otherwise, line=start.line)

    def _parse_while(self) -> ast.While:
        start = self.stream.next()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement() or ast.Compound(line=start.line)
        return ast.While(cond=ast.Parenthesized(cond, line=start.line), body=body,
                         line=start.line)

    def _parse_do_while(self) -> ast.DoWhile:
        start = self.stream.next()
        body = self._parse_statement() or ast.Compound(line=start.line)
        if self.stream.peek().is_keyword("while"):
            self.stream.next()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhile(body=body, cond=ast.Parenthesized(cond, line=start.line),
                           line=start.line)

    def _parse_for(self) -> ast.For:
        start = self.stream.next()
        self._expect_punct("(")
        init: ast.Node | None = None
        if not self.stream.peek().is_punct(";"):
            if self._looks_like_declaration():
                init = self._parse_declaration()
            else:
                init = ast.ExpressionStatement(self._parse_expression(), line=start.line)
                self._expect_punct(";")
        else:
            self._expect_punct(";")
        cond: ast.Node | None = None
        if not self.stream.peek().is_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        update: ast.Node | None = None
        if not self.stream.peek().is_punct(")"):
            update = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement() or ast.Compound(line=start.line)
        return ast.For(init=init, cond=cond, update=update, body=body, line=start.line)

    def _parse_switch(self) -> ast.Switch:
        start = self.stream.next()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_compound()
        return ast.Switch(cond=ast.Parenthesized(cond, line=start.line), body=body,
                          line=start.line)

    def _parse_case(self) -> ast.CaseLabel:
        tok = self.stream.next()
        value: ast.Node | None = None
        if tok.text == "case":
            value = self._parse_expression()
        self._expect_punct(":")
        return ast.CaseLabel(value=value, line=tok.line)

    # ----------------------------------------------------------- expressions

    def _parse_expression(self) -> ast.Node:
        expr = self._parse_assignment_expr()
        if self.stream.peek().is_punct(","):
            parts = [expr]
            while self._accept_punct(","):
                parts.append(self._parse_assignment_expr())
            return ast.CommaExpression(parts=parts, line=expr.line)
        return expr

    def _parse_assignment_expr(self) -> ast.Node:
        left = self._parse_conditional_expr()
        tok = self.stream.peek()
        if tok.kind is TokenKind.PUNCT and tok.text in _ASSIGN_OPS:
            self.stream.next()
            right = self._parse_assignment_expr()
            return ast.Assignment(op=tok.text, target=left, value=right, line=left.line)
        return left

    def _parse_conditional_expr(self) -> ast.Node:
        cond = self._parse_binary_expr(0)
        if self._accept_punct("?"):
            then = self._parse_assignment_expr()
            self._expect_punct(":")
            otherwise = self._parse_conditional_expr()
            return ast.Conditional(cond=cond, then=then, otherwise=otherwise, line=cond.line)
        return cond

    def _parse_binary_expr(self, min_level: int) -> ast.Node:
        """Precedence climbing: fold operators of ``min_level`` or tighter
        into ``left``; a right operand takes only tighter operators."""
        left = self._parse_unary_expr()
        while True:
            tok = self.stream.peek()
            level = _BINARY_LEVEL.get(tok.text, -1) \
                if tok.kind is TokenKind.PUNCT else -1
            if level < min_level:
                return left
            self.stream.next()
            right = self._parse_binary_expr(level + 1)
            left = ast.BinaryOp(op=tok.text, left=left, right=right, line=left.line)

    def _parse_unary_expr(self) -> ast.Node:
        tok = self.stream.peek()
        if tok.kind is TokenKind.PUNCT and tok.text in ("+", "-", "!", "~", "&", "*", "++", "--"):
            self.stream.next()
            operand = self._parse_unary_expr()
            return ast.UnaryOp(op=tok.text, operand=operand, line=tok.line)
        if tok.is_keyword("sizeof"):
            self.stream.next()
            if self.stream.peek().is_punct("("):
                self.stream.next()
                if self._is_type_start(self.stream.peek()):
                    type_name, _ = self._parse_type_specifier()
                    pointer = 0
                    while self._accept_punct("*"):
                        pointer += 1
                    self._expect_punct(")")
                    return ast.UnaryOp(op="sizeof",
                                       operand=ast.Identifier(type_name + "*" * pointer,
                                                              line=tok.line),
                                       line=tok.line)
                inner = self._parse_expression()
                self._expect_punct(")")
                return ast.UnaryOp(op="sizeof", operand=ast.Parenthesized(inner, line=tok.line),
                                   line=tok.line)
            operand = self._parse_unary_expr()
            return ast.UnaryOp(op="sizeof", operand=operand, line=tok.line)
        # Cast expression:  ( type ) expr
        if tok.is_punct("(") and self._is_type_start(self.stream.peek(1)):
            mark_idx = self.stream.mark()
            self.stream.next()
            type_name, _ = self._parse_type_specifier()
            pointer = 0
            while self._accept_punct("*"):
                pointer += 1
            if self.stream.peek().is_punct(")"):
                self.stream.next()
                nxt = self.stream.peek()
                # Disambiguate from a parenthesised expression: a cast must be
                # followed by the start of another unary expression.
                if (nxt.kind in (TokenKind.IDENTIFIER, TokenKind.NUMBER, TokenKind.STRING,
                                 TokenKind.CHAR)
                        or nxt.is_punct("(", "*", "&", "-", "+", "!", "~", "++", "--")):
                    self.stream.commit()
                    operand = self._parse_unary_expr()
                    return ast.Cast(type_name=type_name + "*" * pointer, operand=operand,
                                    line=tok.line)
            self.stream.reset()
        return self._parse_postfix_expr()

    def _parse_postfix_expr(self) -> ast.Node:
        expr = self._parse_primary_expr()
        while True:
            tok = self.stream.peek()
            if tok.is_punct("("):
                self.stream.next()
                args: list[ast.Node] = []
                if not self.stream.peek().is_punct(")"):
                    while True:
                        args.append(self._parse_assignment_expr())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expr = ast.Call(func=expr, args=args, line=expr.line or tok.line)
            elif tok.is_punct("["):
                self.stream.next()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = ast.ArraySubscript(array=expr, index=index, line=expr.line or tok.line)
            elif tok.is_punct("."):
                self.stream.next()
                member = self.stream.next().text
                expr = ast.MemberAccess(obj=expr, member=member, arrow=False,
                                        line=expr.line or tok.line)
            elif tok.is_punct("->"):
                self.stream.next()
                member = self.stream.next().text
                expr = ast.MemberAccess(obj=expr, member=member, arrow=True,
                                        line=expr.line or tok.line)
            elif tok.is_punct("++", "--"):
                self.stream.next()
                expr = ast.PostfixOp(op=tok.text, operand=expr, line=expr.line or tok.line)
            else:
                return expr

    def _parse_primary_expr(self) -> ast.Node:
        tok = self.stream.peek()
        if tok.kind is TokenKind.IDENTIFIER or (tok.kind is TokenKind.KEYWORD
                                                and tok.text in ("bool", "_Bool")):
            self.stream.next()
            return ast.Identifier(name=tok.text, line=tok.line)
        if tok.kind is TokenKind.NUMBER:
            self.stream.next()
            return ast.Literal(value=tok.text, category="number", line=tok.line)
        if tok.kind is TokenKind.STRING:
            self.stream.next()
            # Adjacent string literal concatenation.
            text = tok.text
            while self.stream.peek().kind is TokenKind.STRING:
                text += " " + self.stream.next().text
            return ast.Literal(value=text, category="string", line=tok.line)
        if tok.kind is TokenKind.CHAR:
            self.stream.next()
            return ast.Literal(value=tok.text, category="char", line=tok.line)
        if tok.is_punct("("):
            self.stream.next()
            inner = self._parse_expression()
            self._expect_punct(")")
            return ast.Parenthesized(inner=inner, line=tok.line)
        if tok.is_punct("{"):
            return self._parse_init_list()
        self._error(f"unexpected token {tok.text!r} in expression", tok)
        self.stream.next()
        return ast.Identifier(name=tok.text or "<error>", line=tok.line)


# ------------------------------------------------------------------ helpers


def _parse(tokens: list[Token], *, tolerant: bool,
           ) -> tuple[ast.TranslationUnit, list[ParseDiagnostic]]:
    directives = [t for t in tokens if t.kind is TokenKind.DIRECTIVE]
    parser = Parser(TokenStream(code_tokens(tokens)), tolerant=tolerant,
                    directives=directives)
    return parser.parse(), parser.diagnostics


def parse_source(source: str, *, tolerant: bool = True) -> ast.TranslationUnit:
    """Lex and parse ``source`` into a translation unit."""
    return _parse(tokenize(source), tolerant=tolerant)[0]


def parse_source_with_diagnostics(
    source: str, *, lexed: list[Token] | None = None,
) -> tuple[ast.TranslationUnit, list[ParseDiagnostic]]:
    """Parse tolerantly and also return the diagnostics produced.

    ``lexed`` is ``tokenize(source)`` when the caller already lexed the
    buffer (the serving front end lexes once for the parser and the model).
    """
    return _parse(tokenize(source) if lexed is None else lexed, tolerant=True)


def parses_cleanly(source: str) -> bool:
    """Return True if ``source`` parses with no errors in strict mode.

    This is the corpus inclusion criterion (the paper uses pycparser for the
    same yes/no decision).
    """
    try:
        unit = parse_source(source, tolerant=False)
    except Exception:
        return False
    return unit.has_main() or bool(unit.functions())
