def run(values, draw, max_rounds, max_steps):
    count = len(values)
    i = steps = 0
    gaps = []
    close = gaps.append
    pending = []
    c1 = unset
    if i < count:
        v = values[i]
    else:
        v = draw(i, d0)
    steps += 2 if pending else 1
    close(tuple(pending))
    pending.clear()
    if steps > max_steps: too_long(max_steps)
    c1 = v
    i += 1
    pending.append(frozenset(((c1,), ((c1 + k2),), (),)))
    pending.append(frozenset(((c1,), ((c1 + k3),), (),)))
    pending.append(frozenset(((c1,), ((c1 + k4),), (),)))
    pending.append(frozenset(((c1,), ((c1 + k5),), (),)))
    pending.append(frozenset(((c1,), ((c1 + k6),), (),)))
    pending.append(frozenset(((c1,), ((c1 + k7),), (),)))
    pending.append(frozenset(((c1,), ((c1 + k8),), (),)))
    pending.append(frozenset(((c1,), ((c1 + k9),), (),)))
    pending.append(frozenset(((c1,), ((c1 + k10),), (),)))
    pending.append(frozenset(((c1,), ((c1 + k11),), (),)))
    pending.append(frozenset(((c1,), ((c1 + k12),), (),)))
    pending.append(frozenset(((c1,), ((c1 + k13),), (),)))
    close(tuple(pending))
    return gaps
