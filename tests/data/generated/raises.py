def run(values, draw, max_rounds, max_steps):
    count = len(values)
    i = steps = 0
    gaps = []
    close = gaps.append
    pending = []
    c1 = unset
    if i < count:
        v = values[i]
        if not d0.contains(v): raise InputRejectedError(i, v, d0)
    else:
        v = draw(i, d0)
    steps += 2 if pending else 1
    close(tuple(pending))
    pending.clear()
    if steps > max_steps: too_long(max_steps)
    c1 = v
    i += 1
    if (c1 > k2):
        raise TypeError(m3)
    else:
        pass
    raise SpecStructureError("exit marker outside any loop")
    close(tuple(pending))
    return gaps
