def run(values, draw, max_rounds, max_steps):
    count = len(values)
    i = steps = 0
    gaps = []
    close = gaps.append
    pending = []
    h3 = []
    c1 = unset
    c3 = unset
    def loop5():
        nonlocal i, steps, c1, c3
        for _ in range(max_rounds):
            if (c3 > k6):
                u0 = c3
                hash(u0)
                pending.append(((), (u0,)))
                break
            else:
                break
        else:
            too_many_rounds(max_rounds)
    def loop2():
        nonlocal i, steps, c1, c3
        for _ in range(max_rounds):
            if (len(h3) == c1):
                break
            else:
                if i < count:
                    v = values[i]
                else:
                    v = draw(i, d4)
                steps += 2 if pending else 1
                close(tuple(pending))
                pending.clear()
                if steps > max_steps: too_long(max_steps)
                h3.append(v)
                c3 = v
                i += 1
                loop5()
                u0_0 = c3
                u0_1 = sum(h3)
                s0_0 = hash(u0_0)
                s0_1 = hash(u0_1)
                pending.append(((u0_0,), (u0_1,)) if s0_0 != s0_1 else factor(((u0_0,), (u0_1,))))
        else:
            too_many_rounds(max_rounds)
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
    loop2()
    close(tuple(pending))
    return gaps
