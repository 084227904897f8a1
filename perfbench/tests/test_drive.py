"""The open-loop scheduler and the pipelined client."""

import asyncio
import json
import time

import numpy as np

from perfbench.drive import WireClient, call, poisson_offsets, request_body, run_schedule


def test_poisson_offsets_are_seeded_increasing_and_at_rate():
    first = poisson_offsets(20_000, 1_000.0, np.random.default_rng(5))
    again = poisson_offsets(20_000, 1_000.0, np.random.default_rng(5))
    assert np.array_equal(first, again)
    assert np.all(np.diff(first) >= 0)
    assert abs(first[-1] - 20.0) < 0.5


def test_schedule_fires_in_order_never_early_and_reports_lag():
    offsets = np.array([0.0, 0.01, 0.01, 0.03, 0.05])
    fired = []

    def fire(index, due):
        fired.append((index, due, time.perf_counter()))
        if index == 2:
            time.sleep(0.03)  # a stall: index 3 fires late

    start, lag = asyncio.run(run_schedule(offsets, fire))
    assert [index for index, _, _ in fired] == [0, 1, 2, 3, 4]
    for index, due, at in fired:
        assert due == start + offsets[index]
        assert at >= due - 1e-6
    late = fired[3][2] - fired[3][1]
    assert lag >= late - 1e-3 and lag >= 0.009


def test_wire_client_pipelines_prencoded_requests():
    async def scenario():
        async def echo(reader, writer):
            while line := await reader.readline():
                request = json.loads(line)
                writer.write((json.dumps({"id": request["id"], "echo": request["x"]}) + "\n").encode())
            writer.close()

        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        answers = {}
        done = asyncio.Event()

        def on_response(message, now):
            answers[message["id"]] = message["echo"]
            if len(answers) == 50:
                done.set()

        client = await WireClient.connect("127.0.0.1", port, on_response)
        for request_id in range(50):
            client.send(request_id, request_body({"op": "predict", "x": request_id * 2}))
        await asyncio.wait_for(done.wait(), 10)
        single = await call("127.0.0.1", port, {"id": "h", "x": 7})
        await client.close()
        server.close()
        await server.wait_closed()
        return answers, single

    answers, single = asyncio.run(scenario())
    assert answers == {i: 2 * i for i in range(50)}
    assert single == {"id": "h", "echo": 7}


def test_request_body_drops_the_opening_brace():
    assert request_body({"a": [1.5]}) == b'"a":[1.5]}\n'
