"""Complexity declaration decorators."""

import pytest

from repro.lint.decorators import ComplexityClass, o1
from repro.lint import complexity


class TestComplexityClass:
    def test_parse_aliases(self):
        assert ComplexityClass.parse("1") is ComplexityClass.CONSTANT
        assert ComplexityClass.parse("O(1)") is ComplexityClass.CONSTANT
        assert ComplexityClass.parse("constant") is ComplexityClass.CONSTANT
        assert ComplexityClass.parse("log n") is ComplexityClass.LOG
        assert ComplexityClass.parse("O(log n)") is ComplexityClass.LOG
        assert ComplexityClass.parse("n") is ComplexityClass.LINEAR
        assert ComplexityClass.parse("linear") is ComplexityClass.LINEAR
        assert ComplexityClass.parse("n log n") is ComplexityClass.LINEARITHMIC

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown complexity"):
            ComplexityClass.parse("n^2")

    def test_order_sorts_by_growth(self):
        classes = sorted(ComplexityClass, key=lambda k: k.order)
        assert classes == [
            ComplexityClass.CONSTANT,
            ComplexityClass.LOG,
            ComplexityClass.LINEAR,
            ComplexityClass.LINEARITHMIC,
        ]


class TestDecorators:
    def test_o1_bare(self):
        @o1
        def fn():
            return 42

        assert fn() == 42

    def test_o1_with_note(self):
        @o1(note="one pointer write")
        def fn():
            return 42

        assert fn() == 42

    def test_complexity_decorator(self):
        @complexity("log n", note="binary search")
        def fn(x):
            return x + 1

        assert fn(1) == 2

    def test_complexity_rejects_bad_class_eagerly(self):
        with pytest.raises(ValueError):
            complexity("exponential")

    def test_decorator_does_not_wrap(self):
        # Zero runtime cost: the original function object comes back,
        # with nothing set on it.
        def fn():
            pass

        assert o1(fn) is fn
        assert o1(note="n")(fn) is fn
        assert complexity("n")(fn) is fn
        assert vars(fn) == {}
