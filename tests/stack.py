"""Calls made deep in the stack, to show that code does not recurse: entered
with at most a few frames left below the recursion limit, a call that
recursed once per degree or per normal direction would fail."""

import sys


def deeper(frames, call):
    """call() with `frames` more frames on the stack."""
    return deeper(frames - 1, call) if frames else call()


def stack_depth():
    """The number of frames on the stack of the caller."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth
