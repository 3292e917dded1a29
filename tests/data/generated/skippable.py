def run(values, draw, max_rounds, max_steps):
    count = len(values)
    i = steps = 0
    gaps = []
    close = gaps.append
    pending = []
    if i < count:
        v = values[i]
    else:
        v = draw(i, d0)
    steps += 2 if pending else 1
    close(tuple(pending))
    pending.clear()
    if steps > max_steps: too_long(max_steps)
    i += 1
    u0 = k1
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k2
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k3
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k4
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k5
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k6
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k7
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k8
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k9
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k10
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k11
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k12
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k13
    hash(u0)
    pending.append(((), (u0,)))
    u0 = k14
    hash(u0)
    pending.append(((), (u0,)))
    close(tuple(pending))
    return gaps
