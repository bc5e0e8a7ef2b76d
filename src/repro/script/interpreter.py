"""Tree-walking interpreter for LuaLite.

Semantics follow Lua where it matters to sensing scripts:

* ``nil`` and ``false`` are falsy, everything else (including 0) truthy,
* tables are associative with a 1-based array part; ``#`` is the border
  of the array part,
* ``and``/``or`` short-circuit and return operands, not booleans,
* functions are first-class closures,
* arithmetic on non-numbers and calling non-functions raise
  :class:`~repro.common.errors.ScriptRuntimeError` with the line number.

A step budget caps total evaluation work so a malicious or buggy script
shipped to a phone cannot spin forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import (
    ScriptRuntimeError,
    ScriptSecurityError,
)
from repro.script import ast_nodes as ast

LuaValue = Any  # None | bool | int | float | str | LuaTable | callable | LuaFunction


class LuaTable:
    """A Lua table: hash part plus 1-based array behaviour.

    Keys may be any hashable non-nil Lua value. Float keys with integral
    values are normalized to ints, as Lua does.
    """

    def __init__(self, initial: dict[Any, Any] | None = None) -> None:
        self._data: dict[Any, Any] = {}
        if initial:
            for key, value in initial.items():
                self.set(key, value)

    @staticmethod
    def _normalize_key(key: Any) -> Any:
        if isinstance(key, float) and key.is_integer():
            return int(key)
        return key

    def get(self, key: Any) -> Any:
        """The value at ``key`` (nil -> None)."""
        return self._data.get(self._normalize_key(key))

    def set(self, key: Any, value: Any) -> None:
        """Set ``key`` to ``value``; assigning nil deletes the key."""
        if key is None:
            raise ScriptRuntimeError("table index is nil")
        key = self._normalize_key(key)
        if value is None:
            self._data.pop(key, None)
        else:
            self._data[key] = value

    def length(self) -> int:
        """The ``#`` border: largest n with 1..n all present."""
        n = 0
        while (n + 1) in self._data:
            n += 1
        return n

    def keys(self) -> list[Any]:
        """All keys, in insertion order."""
        return list(self._data.keys())

    def items(self) -> list[tuple[Any, Any]]:
        """All (key, value) pairs, in insertion order."""
        return list(self._data.items())

    def array_items(self) -> list[Any]:
        """The array part ``t[1] .. t[#t]`` as a Python list."""
        return [self._data[index] for index in range(1, self.length() + 1)]

    def to_python(self) -> Any:
        """Deep-convert to Python: pure array parts become lists, else dicts."""
        length = self.length()
        if length == len(self._data):
            return [_to_python(value) for value in self.array_items()]
        return {key: _to_python(value) for key, value in self._data.items()}

    def __eq__(self, other: object) -> bool:
        return self is other  # Lua tables compare by identity

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LuaTable({self._data!r})"


def _to_python(value: Any) -> Any:
    return value.to_python() if isinstance(value, LuaTable) else value


def from_python(value: Any) -> LuaValue:
    """Convert a Python structure into Lua values (lists become 1-based)."""
    if isinstance(value, dict):
        table = LuaTable()
        for key, item in value.items():
            table.set(key, from_python(item))
        return table
    if isinstance(value, (list, tuple)):
        table = LuaTable()
        for index, item in enumerate(value, start=1):
            table.set(index, from_python(item))
        return table
    return value


class LuaIterator:
    """What ``pairs``/``ipairs`` return: a snapshot of (k, v) entries.

    LuaLite's generic ``for`` consumes these directly instead of Lua's
    stateless iterator-function protocol; the observable semantics for
    sensing scripts are the same.
    """

    def __init__(self, entries: list[tuple[Any, ...]]) -> None:
        self.entries = list(entries)


@dataclass
class LuaFunction:
    """A closure: parameters, body and the defining environment."""

    parameters: tuple[str, ...]
    body: ast.Block
    closure: "Environment"
    name: str = "<anonymous>"


class Environment:
    """A lexical scope chained to its parent."""

    __slots__ = ("_values", "parent")

    def __init__(self, parent: "Environment | None" = None) -> None:
        self._values: dict[str, Any] = {}
        self.parent = parent

    def declare(self, name: str, value: Any) -> None:
        """Introduce a new local binding in this scope."""
        self._values[name] = value

    def lookup(self, name: str) -> tuple["Environment", Any] | None:
        """Find the scope holding ``name``; None if unbound anywhere."""
        scope: Environment | None = self
        while scope is not None:
            if name in scope._values:
                return scope, scope._values[name]
            scope = scope.parent
        return None

    def assign(self, name: str, value: Any) -> None:
        """Assign to the nearest binding, or create a global."""
        scope: Environment | None = self
        while scope is not None:
            if name in scope._values:
                scope._values[name] = value
                return
            if scope.parent is None:
                # Reached the global scope without finding the name.
                scope._values[name] = value
                return
            scope = scope.parent

    def globals(self) -> "Environment":
        """The root (global) scope of this chain."""
        scope = self
        while scope.parent is not None:
            scope = scope.parent
        return scope


class _BreakSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


def lua_type_name(value: Any) -> str:
    """Lua's name for the type of ``value``."""
    if value is None:
        return "nil"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, LuaTable):
        return "table"
    if isinstance(value, LuaFunction) or callable(value):
        return "function"
    return type(value).__name__


def is_truthy(value: Any) -> bool:
    """Lua truthiness: only nil and false are falsy."""
    return value is not None and value is not False


def lua_tostring(value: Any) -> str:
    """Render a value the way Lua's ``tostring`` would (approximately)."""
    if value is None:
        return "nil"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return f"{value:.1f}"
    return str(value)


class Interpreter:
    """Evaluates LuaLite ASTs against an environment.

    ``max_steps`` bounds the number of AST nodes evaluated; exceeding it
    raises :class:`ScriptRuntimeError`, which the phone reports back to
    the server as a failed task.
    """

    def __init__(
        self,
        global_environment: Environment | None = None,
        *,
        max_steps: int = 2_000_000,
    ) -> None:
        self.globals = global_environment or Environment()
        self.max_steps = max_steps
        self._steps = 0

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(self, block: ast.Block) -> Any:
        """Execute a chunk; returns the value of a top-level ``return``."""
        self._steps = 0
        environment = Environment(parent=self.globals)
        try:
            self.execute_block(block, environment)
        except _ReturnSignal as signal:
            return signal.value
        except _BreakSignal:
            raise ScriptRuntimeError("break outside of a loop") from None
        return None

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _tick(self, line: int) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise ScriptRuntimeError(
                f"script exceeded its step budget of {self.max_steps} (line {line})"
            )

    def execute_block(self, block: ast.Block, environment: Environment) -> None:
        """Execute every statement of ``block`` in ``environment``."""
        for statement in block.statements:
            self.execute_statement(statement, environment)

    def execute_statement(self, statement: ast.Statement, environment: Environment) -> None:
        """Execute one statement in ``environment``."""
        self._tick(statement.line)
        if isinstance(statement, ast.LocalAssign):
            values = [self.evaluate(value, environment) for value in statement.values]
            for index, name in enumerate(statement.names):
                environment.declare(
                    name, values[index] if index < len(values) else None
                )
        elif isinstance(statement, ast.Assign):
            values = [self.evaluate(value, environment) for value in statement.values]
            for index, target in enumerate(statement.targets):
                value = values[index] if index < len(values) else None
                if isinstance(target, ast.Name):
                    environment.assign(target.identifier, value)
                else:
                    assert isinstance(target, ast.Index)
                    obj = self.evaluate(target.obj, environment)
                    key = self.evaluate(target.key, environment)
                    if not isinstance(obj, LuaTable):
                        raise ScriptRuntimeError(
                            f"line {target.line}: cannot index a "
                            f"{lua_type_name(obj)} value"
                        )
                    obj.set(key, value)
        elif isinstance(statement, ast.ExpressionStatement):
            self.evaluate(statement.expression, environment)
        elif isinstance(statement, ast.If):
            for condition, block in statement.branches:
                if is_truthy(self.evaluate(condition, environment)):
                    self.execute_block(block, Environment(parent=environment))
                    return
            if statement.otherwise is not None:
                self.execute_block(statement.otherwise, Environment(parent=environment))
        elif isinstance(statement, ast.While):
            while is_truthy(self.evaluate(statement.condition, environment)):
                self._tick(statement.line)
                try:
                    self.execute_block(statement.body, Environment(parent=environment))
                except _BreakSignal:
                    break
        elif isinstance(statement, ast.NumericFor):
            self._execute_numeric_for(statement, environment)
        elif isinstance(statement, ast.GenericFor):
            self._execute_generic_for(statement, environment)
        elif isinstance(statement, ast.FunctionDecl):
            function = LuaFunction(
                parameters=statement.function.parameters,
                body=statement.function.body,
                closure=environment,
                name=statement.name,
            )
            if statement.is_local:
                environment.declare(statement.name, function)
            else:
                environment.assign(statement.name, function)
        elif isinstance(statement, ast.Return):
            value = (
                self.evaluate(statement.value, environment)
                if statement.value is not None
                else None
            )
            raise _ReturnSignal(value)
        elif isinstance(statement, ast.Break):
            raise _BreakSignal()
        else:  # pragma: no cover - parser produces no other nodes
            raise ScriptRuntimeError(f"unknown statement {type(statement).__name__}")

    def _execute_numeric_for(
        self, statement: ast.NumericFor, environment: Environment
    ) -> None:
        start = self._require_number(
            self.evaluate(statement.start, environment), statement.line, "for start"
        )
        stop = self._require_number(
            self.evaluate(statement.stop, environment), statement.line, "for stop"
        )
        if statement.step is not None:
            step = self._require_number(
                self.evaluate(statement.step, environment), statement.line, "for step"
            )
        else:
            step = 1
        if step == 0:
            raise ScriptRuntimeError(f"line {statement.line}: for step is zero")
        value = start
        while (step > 0 and value <= stop) or (step < 0 and value >= stop):
            self._tick(statement.line)
            scope = Environment(parent=environment)
            scope.declare(statement.variable, value)
            try:
                self.execute_block(statement.body, scope)
            except _BreakSignal:
                break
            value = value + step

    def _execute_generic_for(
        self, statement: ast.GenericFor, environment: Environment
    ) -> None:
        iterator = self.evaluate(statement.iterator, environment)
        if isinstance(iterator, LuaTable):
            # `for k, v in t` sugar: iterate the table's pairs directly.
            iterator = LuaIterator(iterator.items())
        if not isinstance(iterator, LuaIterator):
            raise ScriptRuntimeError(
                f"line {statement.line}: generic for needs pairs()/ipairs() "
                f"(got {lua_type_name(iterator)})"
            )
        for entry in iterator.entries:
            self._tick(statement.line)
            scope = Environment(parent=environment)
            values = entry if isinstance(entry, tuple) else (entry,)
            for index, name in enumerate(statement.names):
                scope.declare(name, values[index] if index < len(values) else None)
            try:
                self.execute_block(statement.body, scope)
            except _BreakSignal:
                break

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def evaluate(self, expression: ast.Expression, environment: Environment) -> Any:
        """Evaluate an expression to a Lua value."""
        self._tick(expression.line)
        if isinstance(expression, ast.NilLiteral):
            return None
        if isinstance(expression, ast.BoolLiteral):
            return expression.value
        if isinstance(expression, ast.NumberLiteral):
            return expression.value
        if isinstance(expression, ast.StringLiteral):
            return expression.value
        if isinstance(expression, ast.Name):
            found = environment.lookup(expression.identifier)
            return found[1] if found is not None else None
        if isinstance(expression, ast.BinaryOp):
            return self._evaluate_binary(expression, environment)
        if isinstance(expression, ast.UnaryOp):
            return self._evaluate_unary(expression, environment)
        if isinstance(expression, ast.Index):
            obj = self.evaluate(expression.obj, environment)
            key = self.evaluate(expression.key, environment)
            if isinstance(obj, LuaTable):
                return obj.get(key)
            raise ScriptRuntimeError(
                f"line {expression.line}: cannot index a {lua_type_name(obj)} value"
            )
        if isinstance(expression, ast.Call):
            callee = self.evaluate(expression.callee, environment)
            if callee is None and isinstance(expression.callee, ast.Name):
                raise ScriptSecurityError(
                    f"line {expression.line}: call to unknown function "
                    f"{expression.callee.identifier!r} (not whitelisted)"
                )
            arguments = [
                self.evaluate(argument, environment)
                for argument in expression.arguments
            ]
            return self._call(callee, arguments, expression.line)
        if isinstance(expression, ast.FunctionExpr):
            return LuaFunction(
                parameters=expression.parameters,
                body=expression.body,
                closure=environment,
            )
        if isinstance(expression, ast.TableConstructor):
            table = LuaTable()
            array_index = 1
            for field in expression.fields:
                value = self.evaluate(field.value, environment)
                if field.key is None:
                    table.set(array_index, value)
                    array_index += 1
                else:
                    table.set(self.evaluate(field.key, environment), value)
            return table
        raise ScriptRuntimeError(  # pragma: no cover
            f"unknown expression {type(expression).__name__}"
        )

    def _call(self, callee: Any, arguments: list[Any], line: int) -> Any:
        if isinstance(callee, LuaFunction):
            scope = Environment(parent=callee.closure)
            for index, parameter in enumerate(callee.parameters):
                scope.declare(
                    parameter, arguments[index] if index < len(arguments) else None
                )
            try:
                self.execute_block(callee.body, scope)
            except _ReturnSignal as signal:
                return signal.value
            return None
        if callable(callee):
            try:
                return callee(*arguments)
            except (ScriptRuntimeError, ScriptSecurityError):
                raise
            except TypeError as exc:
                raise ScriptRuntimeError(f"line {line}: bad call: {exc}") from exc
        raise ScriptRuntimeError(
            f"line {line}: cannot call a {lua_type_name(callee)} value"
        )

    @staticmethod
    def _require_number(value: Any, line: int, what: str) -> int | float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScriptRuntimeError(
                f"line {line}: {what} must be a number, got {lua_type_name(value)}"
            )
        return value

    def _evaluate_binary(self, node: ast.BinaryOp, environment: Environment) -> Any:
        operator = node.operator
        if operator == "and":
            left = self.evaluate(node.left, environment)
            return self.evaluate(node.right, environment) if is_truthy(left) else left
        if operator == "or":
            left = self.evaluate(node.left, environment)
            return left if is_truthy(left) else self.evaluate(node.right, environment)
        left = self.evaluate(node.left, environment)
        right = self.evaluate(node.right, environment)
        if operator == "==":
            return self._lua_equals(left, right)
        if operator == "~=":
            return not self._lua_equals(left, right)
        if operator == "..":
            if not isinstance(left, (str, int, float)) or isinstance(left, bool):
                raise ScriptRuntimeError(
                    f"line {node.line}: cannot concatenate a {lua_type_name(left)}"
                )
            if not isinstance(right, (str, int, float)) or isinstance(right, bool):
                raise ScriptRuntimeError(
                    f"line {node.line}: cannot concatenate a {lua_type_name(right)}"
                )
            return lua_tostring(left) + lua_tostring(right)
        if operator in ("<", "<=", ">", ">="):
            return self._lua_compare(operator, left, right, node.line)
        # arithmetic
        left_number = self._require_number(left, node.line, "left operand")
        right_number = self._require_number(right, node.line, "right operand")
        if operator == "+":
            return left_number + right_number
        if operator == "-":
            return left_number - right_number
        if operator == "*":
            return left_number * right_number
        if operator == "/":
            if right_number == 0:
                # Lua yields inf/nan for division by zero.
                if left_number == 0:
                    return math.nan
                return math.inf if left_number > 0 else -math.inf
            return left_number / right_number
        if operator == "%":
            if right_number == 0:
                return math.nan
            # Lua's floored modulo, computed via fmod so non-finite
            # operands yield NaN/identity instead of crashing (this is
            # how Lua 5.3 implements float %). Python's fmod raises on
            # an infinite dividend where C returns NaN — match C/Lua.
            if math.isinf(left_number):
                return math.nan
            result = math.fmod(left_number, right_number)
            if result != 0 and (result < 0) != (right_number < 0):
                result += right_number
            return result
        if operator == "^":
            return float(left_number) ** float(right_number)
        raise ScriptRuntimeError(  # pragma: no cover
            f"line {node.line}: unknown operator {operator!r}"
        )

    @staticmethod
    def _lua_equals(left: Any, right: Any) -> bool:
        # Lua does not coerce across types for equality; beware Python's
        # bool/int and int/float unification.
        if isinstance(left, bool) or isinstance(right, bool):
            return left is right
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            return float(left) == float(right)
        if type(left) is not type(right):
            return False
        return left == right

    @staticmethod
    def _lua_compare(operator: str, left: Any, right: Any, line: int) -> bool:
        numbers = (
            isinstance(left, (int, float))
            and not isinstance(left, bool)
            and isinstance(right, (int, float))
            and not isinstance(right, bool)
        )
        strings = isinstance(left, str) and isinstance(right, str)
        if not numbers and not strings:
            raise ScriptRuntimeError(
                f"line {line}: cannot compare {lua_type_name(left)} "
                f"with {lua_type_name(right)}"
            )
        if operator == "<":
            return left < right
        if operator == "<=":
            return left <= right
        if operator == ">":
            return left > right
        return left >= right

    def _evaluate_unary(self, node: ast.UnaryOp, environment: Environment) -> Any:
        operand = self.evaluate(node.operand, environment)
        if node.operator == "not":
            return not is_truthy(operand)
        if node.operator == "-":
            number = self._require_number(operand, node.line, "operand of unary minus")
            return -number
        if node.operator == "#":
            if isinstance(operand, str):
                return len(operand)
            if isinstance(operand, LuaTable):
                return operand.length()
            raise ScriptRuntimeError(
                f"line {node.line}: cannot take length of a {lua_type_name(operand)}"
            )
        raise ScriptRuntimeError(  # pragma: no cover
            f"line {node.line}: unknown unary operator {node.operator!r}"
        )


NativeFunction = Callable[..., Any]
