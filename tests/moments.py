"""The mean and population variance of a sequence over {1..n}, read off
``LagCorrelations`` at lag 0: the library's one path to them."""

from summatoria.empirical import LagCorrelations
from summatoria.traces import stream


def moments(seq, n):
    probe = LagCorrelations(n, [0])
    stream(seq, n, [probe])
    return probe.mean(), probe.result()[0]
